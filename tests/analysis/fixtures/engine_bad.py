"""Seeded violations for the lock-discipline pass.

Every line expected to produce an UNWAIVED finding carries a trailing
``# EXPECT[<pass-id>]`` marker; ``tests/analysis/test_fixtures.py``
parses the markers and asserts the finding set matches exactly
(pass id, file and line).  Lines with a ``repro-lint: allow`` waiver
must be reported as waived instead.
"""


class BadEngine:
    """Fixture engine: configured via mutation_methods/engine_classes."""

    def __init__(self):
        import threading

        self._write_lock = threading.RLock()
        self._stats_lock = threading.Lock()
        self.shards = []
        self.log = []

    # -- lock-discipline: entry points must lock first ------------------
    def insert_batch(self, rows):
        self.log.append(rows)  # EXPECT[lock-discipline]
        with self._write_lock:
            shard = self.shards[0]
            shard.insert_batch(rows)
            return len(rows)

    def insert(self, row):
        # Delegation to another entry point satisfies the rule.
        return self.insert_batch([row])

    def waived_insert(self, rows):
        # repro-lint: allow[lock-discipline] fixture: proves a reasoned waiver suppresses the finding
        self.log.append(rows)
        return len(rows)

    # -- lock ordering --------------------------------------------------
    def inverted_stats(self):
        shard = self.shards[0]
        with self._stats_lock:
            with shard.write_lock:  # EXPECT[lock-discipline]
                return shard.n_rows

    def inverted_engine(self):
        shard = self.shards[0]
        with shard.write_lock:
            with self._write_lock:  # EXPECT[lock-discipline]
                return shard.n_rows

    def mutation_under_stats_lock(self):
        with self._stats_lock:
            return self.insert_batch([])  # EXPECT[lock-discipline]

    def correct_nesting(self):
        shard = self.shards[0]
        with self._write_lock:
            with self._write_lock:  # reentrant: same lock, no finding
                with shard.write_lock:
                    with self._stats_lock:
                        return shard.n_rows

