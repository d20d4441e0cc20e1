"""Tests for persistence and table import/export."""

from __future__ import annotations

import json
import shutil

import numpy as np
import pytest

from repro.core.coax import COAXIndex
from repro.core.config import COAXConfig, EngineConfig, LayoutConfig, MaintenanceConfig
from repro.core.engine import ShardedCOAX
from repro.data.predicates import Interval, Rectangle
from repro.data.queries import WorkloadConfig, generate_knn_queries
from repro.data.table import Table
from repro.fd.groups import FDGroup
from repro.fd.model import LinearFDModel, SplineFDModel
from repro.indexes.grid_file import SortedCellGridIndex
from repro.io.datasets import encode_categories, load_csv, load_npz, save_csv, save_npz
from repro.io.persistence import (
    FORMAT_VERSION,
    LEGACY_FORMAT_VERSION,
    MANIFEST_NAME,
    MMAP_MIN_BYTES,
    SUPPORTED_VERSIONS,
    UnsupportedFormatError,
    load_engine,
    load_index,
    save_index,
)


def _manifest(path):
    """Parsed manifest of a columnar (v6) archive directory."""
    return json.loads((path / MANIFEST_NAME).read_text())


def _mmap_backed(array: np.ndarray) -> bool:
    """Whether ``array`` is (a zero-copy view of) a mapped file.

    Arrays below the ``MMAP_MIN_BYTES`` threshold are read eagerly by
    design (an fd is not worth a few hundred bytes) and pass trivially.
    """
    if array.nbytes < MMAP_MIN_BYTES:
        return True
    return isinstance(array, np.memmap) or isinstance(array.base, np.memmap)


class TestIndexPersistence:
    def test_round_trip_preserves_results(self, airline_coax, airline_small, tmp_path):
        path = save_index(airline_coax, tmp_path / "airline.coax.npz")
        loaded = load_index(path)
        assert loaded.n_rows == airline_coax.n_rows
        assert len(loaded.groups) == len(airline_coax.groups)
        assert loaded.primary_ratio == pytest.approx(airline_coax.primary_ratio)
        workload = generate_knn_queries(
            airline_small, WorkloadConfig(n_queries=8, k_neighbours=100, seed=9)
        )
        for query in workload:
            assert np.array_equal(
                np.sort(loaded.range_query(query)), np.sort(airline_coax.range_query(query))
            )

    def test_round_trip_preserves_model_parameters(self, airline_coax, tmp_path):
        path = save_index(airline_coax, tmp_path / "m.npz")
        loaded = load_index(path)
        original = {
            (g.predictor, d): g.model_for(d) for g in airline_coax.groups for d in g.dependents
        }
        restored = {
            (g.predictor, d): g.model_for(d) for g in loaded.groups for d in g.dependents
        }
        assert set(original) == set(restored)
        for key, model in original.items():
            assert restored[key].slope == pytest.approx(model.slope)
            assert restored[key].eps_ub == pytest.approx(model.eps_ub)

    def test_round_trip_preserves_delta_state(self, tmp_path):
        """Pending (not yet compacted) records survive save/load as pending."""
        rng = np.random.default_rng(0)
        x = rng.uniform(0.0, 100.0, size=1_000)
        table = Table({"x": x, "y": 2.0 * x + rng.uniform(-1, 1, size=1_000)})
        groups = [
            FDGroup(predictor="x", dependents=("y",), models={"y": LinearFDModel(2.0, 0.0, 1.5, 1.5)})
        ]
        index = COAXIndex(table, groups=groups)
        inlier_id = index.insert({"x": 50.0, "y": 100.0})
        outlier_id = index.insert({"x": 50.0, "y": 700.0})
        path = save_index(index, tmp_path / "pending.npz")
        loaded = load_index(path)
        assert loaded.n_rows == 1_000
        assert loaded.n_pending == 2
        assert loaded.n_pending_primary == 1
        assert loaded.n_pending_outlier == 1
        # Pending rows stay queryable with their pre-save ids …
        hits = loaded.range_query(Rectangle({"y": Interval(699.0, 701.0)}))
        assert hits.tolist() == [outlier_id]
        # … and new inserts continue from the saved next row id.
        assert loaded.insert({"x": 10.0, "y": 20.0}) == outlier_id + 1
        # Compacting the loaded index folds them in exactly.
        loaded.compact()
        assert loaded.n_pending == 0
        assert loaded.n_rows == 1_003
        assert inlier_id in loaded.range_query(
            Rectangle({"x": Interval(49.9, 50.1), "y": Interval(99.0, 101.0)})
        )

    def test_subset_index_with_pending_saves_consistently(self, tmp_path):
        """A subset-scoped index with pending rows round-trips with its row
        ids preserved (format v3 stores the covered ids; v2 had to fold the
        pending rows into a renumbered table instead)."""
        rng = np.random.default_rng(3)
        x = rng.uniform(0.0, 100.0, size=2_000)
        table = Table({"x": x, "y": 2.0 * x + rng.uniform(-1, 1, size=2_000)})
        groups = [
            FDGroup(predictor="x", dependents=("y",), models={"y": LinearFDModel(2.0, 0.0, 1.5, 1.5)})
        ]
        subset = np.arange(0, 1_000, dtype=np.int64)
        index = COAXIndex(table, groups=groups, row_ids=subset)
        pending_id = index.insert({"x": 50.0, "y": 700.0})  # outlier, id 2000
        assert pending_id == 2_000
        loaded = load_index(save_index(index, tmp_path / "subset.npz"))
        assert loaded.n_rows == 1_000
        assert loaded.n_pending == 1
        assert loaded.next_row_id == index.next_row_id
        # Query equivalence over the whole round trip, pending included.
        for query in (
            Rectangle({"y": Interval(699.0, 701.0)}),
            Rectangle({"x": Interval(10.0, 60.0)}),
            Rectangle(),
        ):
            assert np.array_equal(
                np.sort(loaded.range_query(query)),
                np.sort(index.range_query(query)),
            )
        hits = loaded.range_query(Rectangle({"y": Interval(699.0, 701.0)}))
        assert hits.tolist() == [pending_id]
        # The loaded index must stay usable through another update cycle.
        assert loaded.insert({"x": 10.0, "y": 20.0}) == pending_id + 1
        loaded.compact()
        assert loaded.n_rows == 1_002
        assert pending_id in loaded.range_query(
            Rectangle({"y": Interval(699.0, 701.0)})
        )

    def test_subset_index_with_tombstones_and_pending_round_trips(self, tmp_path):
        """The full CRUD state of a subset-scoped index survives a save/load:
        tombstones stay deleted, pending rows stay pending, ids are kept."""
        rng = np.random.default_rng(4)
        x = rng.uniform(0.0, 100.0, size=2_000)
        table = Table({"x": x, "y": 2.0 * x + rng.uniform(-1, 1, size=2_000)})
        groups = [
            FDGroup(predictor="x", dependents=("y",), models={"y": LinearFDModel(2.0, 0.0, 1.5, 1.5)})
        ]
        subset = np.arange(500, 1_500, dtype=np.int64)
        index = COAXIndex(table, groups=groups, row_ids=subset)
        index.delete_batch(np.arange(500, 600, dtype=np.int64))
        index.insert_batch({"x": [50.0, 60.0], "y": [100.2, 700.0]})
        index.update_batch(
            np.array([700], dtype=np.int64), {"x": [42.0], "y": [84.1]}
        )
        loaded = load_index(save_index(index, tmp_path / "crud.npz"))
        assert loaded.n_tombstoned == index.n_tombstoned
        assert loaded.n_pending == index.n_pending
        assert loaded.n_live == index.n_live
        probes = (
            Rectangle({"x": Interval(41.9, 42.1)}),
            Rectangle({"y": Interval(699.0, 701.0)}),
            Rectangle({"x": Interval(10.0, 60.0)}),
            Rectangle(),
        )
        for query in probes:
            assert np.array_equal(
                np.sort(loaded.range_query(query)),
                np.sort(index.range_query(query)),
            )
        # Compaction after the round trip reclaims identically.
        loaded.compact()
        index.compact()
        for query in probes:
            assert np.array_equal(
                np.sort(loaded.range_query(query)),
                np.sort(index.range_query(query)),
            )

    def test_tombstones_round_trip(self, tmp_path):
        """Deleted rows stay deleted across a save/load without compaction."""
        rng = np.random.default_rng(5)
        x = rng.uniform(0.0, 100.0, size=1_000)
        table = Table({"x": x, "y": 2.0 * x + rng.uniform(-1, 1, size=1_000)})
        groups = [
            FDGroup(predictor="x", dependents=("y",), models={"y": LinearFDModel(2.0, 0.0, 1.5, 1.5)})
        ]
        index = COAXIndex(table, groups=groups)
        doomed = rng.choice(1_000, size=150, replace=False).astype(np.int64)
        index.delete_batch(doomed)
        path = save_index(index, tmp_path / "tomb.coax")
        manifest = _manifest(path)
        assert "__tombstone__" in manifest["arrays"]
        assert manifest["meta"]["format_version"] == FORMAT_VERSION
        loaded = load_index(path)
        assert loaded.n_tombstoned == 150
        assert loaded.n_live == 850
        everything = Rectangle()
        assert np.array_equal(
            np.sort(loaded.range_query(everything)),
            np.sort(index.range_query(everything)),
        )
        loaded.compact()
        assert loaded.n_tombstoned == 0
        assert loaded.n_live == 850

    def test_clean_index_saves_without_tombstone_section(self, airline_coax, tmp_path):
        path = save_index(airline_coax, tmp_path / "clean_tomb.coax")
        arrays = _manifest(path)["arrays"]
        assert "__tombstone__" not in arrays
        assert "__row_ids__" not in arrays  # aligned index

    def test_restore_does_not_reevaluate_models(self, tmp_path, monkeypatch):
        """A v6 structured restore reattaches the persisted partition and
        grid structures verbatim: loading runs ZERO model evaluations —
        not for the build rows (no re-partition) and not for the pending
        rows (the archive carries the per-model routing masks)."""
        rng = np.random.default_rng(6)
        x = rng.uniform(0.0, 100.0, size=800)
        table = Table({"x": x, "y": 2.0 * x + rng.uniform(-1, 1, size=800)})
        model = LinearFDModel(2.0, 0.0, 1.5, 1.5)
        groups = [FDGroup(predictor="x", dependents=("y",), models={"y": model})]
        index = COAXIndex(table, groups=groups)
        index.insert_batch({"x": rng.uniform(0, 100, 50), "y": rng.uniform(0, 300, 50)})
        path = save_index(index, tmp_path / "masks.coax")
        calls = {"n": 0}
        original = LinearFDModel.within_margin

        def counting(self, *args, **kwargs):
            calls["n"] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(LinearFDModel, "within_margin", counting)
        loaded = load_index(path)
        assert calls["n"] == 0
        assert loaded.n_pending == 50
        # A fresh build over the same table DOES evaluate (the counter
        # works) — and matches the reattached structures.
        fresh = COAXIndex(table, groups=groups)
        assert calls["n"] > 0
        assert fresh.n_rows == loaded.n_rows
        assert loaded.delta.per_model_inlier_counts == index.delta.per_model_inlier_counts

    def test_legacy_v2_archive_loads(self, tmp_path):
        """A format-v2 archive (no tombstones, no per-model masks) loads and
        re-derives the delta routing bookkeeping once."""
        rng = np.random.default_rng(7)
        x = rng.uniform(0.0, 100.0, size=600)
        table = Table({"x": x, "y": 2.0 * x + rng.uniform(-1, 1, size=600)})
        groups = [
            FDGroup(predictor="x", dependents=("y",), models={"y": LinearFDModel(2.0, 0.0, 1.5, 1.5)})
        ]
        index = COAXIndex(table, groups=groups)
        index.insert_batch({"x": [10.0, 20.0], "y": [20.1, 700.0]})
        path = save_index(index, tmp_path / "v3.npz", layout="npz")
        with np.load(path, allow_pickle=False) as archive:
            arrays = {key: archive[key] for key in archive.files}
        meta = json.loads(str(arrays["__meta__"]))
        meta["format_version"] = 2
        meta.pop("n_tombstoned", None)
        meta.pop("n_live", None)
        arrays = {
            key: value
            for key, value in arrays.items()
            if not key.startswith("delta::model::")
            and key not in ("__tombstone__", "__row_ids__")
        }
        arrays["__meta__"] = np.array(json.dumps(meta))
        legacy_path = tmp_path / "v2.npz"
        with legacy_path.open("wb") as handle:
            np.savez_compressed(handle, **arrays)
        loaded = load_index(legacy_path)
        assert loaded.n_pending == 2
        assert loaded.n_tombstoned == 0
        assert loaded.delta.per_model_inlier_counts == index.delta.per_model_inlier_counts
        everything = Rectangle()
        assert np.array_equal(
            np.sort(loaded.range_query(everything)),
            np.sort(index.range_query(everything)),
        )

    def test_compacted_index_saves_without_delta_section(self, tmp_path):
        rng = np.random.default_rng(2)
        x = rng.uniform(0.0, 100.0, size=500)
        table = Table({"x": x, "y": 2.0 * x})
        index = COAXIndex(table, groups=[])
        index.insert({"x": 1.0, "y": 2.0})
        index.compact()
        path = save_index(index, tmp_path / "clean.coax")
        assert not any(
            key.startswith("delta::") for key in _manifest(path)["arrays"]
        )
        assert load_index(path).n_pending == 0

    def test_spline_models_survive_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        x = np.sort(rng.uniform(0.0, 100.0, size=2_000))
        y = np.where(x < 50.0, x, 100.0 - x) * 2.0 + rng.normal(0, 0.2, size=2_000)
        table = Table({"x": x, "y": y})
        spline = SplineFDModel.fit(x, y, epsilon=2.0)
        groups = [FDGroup(predictor="x", dependents=("y",), models={"y": spline})]
        index = COAXIndex(table, groups=groups)
        loaded = load_index(save_index(index, tmp_path / "spline.npz"))
        restored = loaded.groups[0].model_for("y")
        assert isinstance(restored, SplineFDModel)
        assert restored.n_segments == spline.n_segments
        query = Rectangle({"y": Interval(40.0, 60.0)})
        assert np.array_equal(np.sort(loaded.range_query(query)), table.select(query))

    def test_rejects_non_index_archives(self, tmp_path):
        path = tmp_path / "random.npz"
        np.savez(path, data=np.arange(5))
        with pytest.raises(ValueError):
            load_index(path)

    def test_format_version_is_checked(self, airline_coax, tmp_path, monkeypatch):
        path = save_index(airline_coax, tmp_path / "v.npz")
        monkeypatch.setattr(
            "repro.io.persistence.SUPPORTED_VERSIONS", (FORMAT_VERSION + 1,)
        )
        with pytest.raises(ValueError):
            load_index(path)

    def test_unsupported_version_error_is_typed(self, airline_coax, tmp_path):
        """A future version raises the typed error naming what IS readable —
        in both the legacy single-file and the v6 directory layout."""
        path = save_index(airline_coax, tmp_path / "future.npz", layout="npz")
        with np.load(path, allow_pickle=False) as archive:
            arrays = {key: archive[key] for key in archive.files}
        meta = json.loads(str(arrays["__meta__"]))
        meta["format_version"] = 99
        arrays["__meta__"] = np.array(json.dumps(meta))
        future_npz = tmp_path / "v99.npz"
        with future_npz.open("wb") as handle:
            np.savez_compressed(handle, **arrays)
        future_dir = save_index(airline_coax, tmp_path / "v99.coax")
        manifest = _manifest(future_dir)
        manifest["meta"]["format_version"] = 99
        (future_dir / MANIFEST_NAME).write_text(json.dumps(manifest))
        for future_path in (future_npz, future_dir):
            for loader in (load_index, load_engine):
                with pytest.raises(UnsupportedFormatError) as excinfo:
                    loader(future_path)
                assert excinfo.value.version == 99
                assert excinfo.value.supported == tuple(SUPPORTED_VERSIONS)
                for version in SUPPORTED_VERSIONS:
                    assert str(version) in str(excinfo.value)
                assert isinstance(excinfo.value, ValueError)  # back-compat

    def test_unserialisable_model_rejected(self):
        from repro.io.persistence import _model_from_dict, _model_to_dict

        class WeirdModel:
            """Satisfies nothing the serialiser knows about."""

        with pytest.raises(TypeError):
            _model_to_dict(WeirdModel())
        with pytest.raises(ValueError):
            _model_from_dict({"kind": "mystery"})


class TestFormatVersionMatrix:
    """Every supported on-disk version (v1–v8) loads — via ``load_index``
    into its natural type and via ``load_engine`` always into a sharded
    engine (flat archives become a 1-shard engine).

    v8 is what ``save_index`` writes today (columnar directory with the
    clustered grid sections); v7 and v6 are the same directory re-stamped
    (v6 also minus the layout sections) — their loader ignores the grid
    sections and rebuilds from the groups, as it must for the older
    permutation grid sections those versions really carried; v5
    is what ``layout="npz"`` still writes; v3 (flat) and v4 (sharded)
    are byte-identical to v5 minus the version stamp and any monitor
    sections, so the fixtures derive them by rewriting the header; v2/v1
    strip the per-model masks resp. the whole delta section, as those
    formats did.
    """

    #: Flat-archive versions (load as COAXIndex / 1-shard engine).
    FLAT_VERSIONS = (1, 2, 3, 5, 6, 7, 8)
    ALL_VERSIONS = (1, 2, 3, 4, 5, 6, 7, 8)

    @staticmethod
    def _rewrite(arrays, meta, path):
        arrays = dict(arrays)
        arrays["__meta__"] = np.array(json.dumps(meta))
        with path.open("wb") as handle:
            np.savez_compressed(handle, **arrays)
        return path

    @staticmethod
    def _restamp_directory(source, target, version):
        """Derive an older columnar archive: copy + rewrite the manifest.

        Below v7, dropping the ``layout::`` sections and the engine's
        layout config alongside the version stamp reproduces what a v6
        writer emitted.
        """
        shutil.copytree(source, target)
        manifest = json.loads((target / MANIFEST_NAME).read_text())
        manifest["meta"]["format_version"] = version
        if version < 7:
            if isinstance(manifest["meta"].get("engine"), dict):
                manifest["meta"]["engine"].pop("layout", None)
            manifest["arrays"] = {
                key: entry
                for key, entry in manifest["arrays"].items()
                if not key.startswith("layout::")
            }
        (target / MANIFEST_NAME).write_text(json.dumps(manifest))
        return target

    @pytest.fixture(scope="class")
    def fixture_state(self, tmp_path_factory):
        """One CRUD-laden index plus one archive per format version."""
        rng = np.random.default_rng(21)
        x = rng.uniform(0.0, 100.0, size=800)
        table = Table({"x": x, "y": 2.0 * x + rng.uniform(-1, 1, size=800)})
        groups = [
            FDGroup(
                predictor="x",
                dependents=("y",),
                models={"y": LinearFDModel(2.0, 0.0, 1.5, 1.5)},
            )
        ]
        index = COAXIndex(table, groups=groups)
        index.insert_batch({"x": [10.0, 20.0], "y": [20.1, 700.0]})
        base = tmp_path_factory.mktemp("versions")
        paths = {}
        # v8: what save_index writes for a flat index today.
        paths[8] = save_index(index, base / "v8.coax")
        assert _manifest(paths[8])["meta"]["format_version"] == FORMAT_VERSION == 8
        # v7 / v6: the same columnar directory re-stamped (v6 minus the
        # layout sections).
        paths[7] = self._restamp_directory(paths[8], base / "v7.coax", 7)
        paths[6] = self._restamp_directory(paths[8], base / "v6.coax", 6)
        # v5: the legacy single-file layout, still written on request.
        paths[5] = save_index(index, base / "v5.npz", layout="npz")
        with np.load(paths[5], allow_pickle=False) as archive:
            arrays = {key: archive[key] for key in archive.files}
        meta = json.loads(str(arrays["__meta__"]))
        assert meta["format_version"] == LEGACY_FORMAT_VERSION == 5
        # v3: identical layout, pre-maintenance version stamp.
        paths[3] = self._rewrite(
            arrays, dict(meta, format_version=3), base / "v3.npz"
        )
        # v2: no per-model masks, no tombstones, no row-id section.
        v2_meta = dict(meta, format_version=2)
        v2_meta.pop("n_tombstoned", None)
        v2_meta.pop("n_live", None)
        v2_arrays = {
            key: value
            for key, value in arrays.items()
            if not key.startswith("delta::model::")
            and key not in ("__tombstone__", "__row_ids__", "__meta__")
        }
        paths[2] = self._rewrite(v2_arrays, v2_meta, base / "v2.npz")
        # v1: no delta section at all — the archive of a compacted index.
        v1_meta = dict(v2_meta, format_version=1, n_pending=0)
        v1_meta.pop("next_row_id", None)
        v1_arrays = {
            key: value
            for key, value in v2_arrays.items()
            if not key.startswith("delta::") and key != "__meta__"
        }
        paths[1] = self._rewrite(v1_arrays, v1_meta, base / "v1.npz")
        # Sharded engine over the same data and delta state: saved as v5,
        # re-stamped as v4 (the pre-maintenance sharded format).
        engine = ShardedCOAX(
            table, config=EngineConfig(n_shards=3, workers=1), groups=groups
        )
        engine.insert_batch({"x": [10.0, 20.0], "y": [20.1, 700.0]})
        engine_path = save_index(engine, base / "engine_v5.npz", layout="npz")
        with np.load(engine_path, allow_pickle=False) as archive:
            engine_arrays = {key: archive[key] for key in archive.files}
        engine_meta = json.loads(str(engine_arrays["__meta__"]))
        assert engine_meta["format_version"] == 5
        del engine_arrays["__meta__"]
        paths[4] = self._rewrite(
            engine_arrays, dict(engine_meta, format_version=4), base / "v4.npz"
        )
        return index, engine, paths

    PROBES = (
        Rectangle({"x": Interval(10.0, 60.0)}),
        Rectangle({"y": Interval(699.0, 701.0)}),
        Rectangle(),
    )

    @pytest.mark.parametrize("version", ALL_VERSIONS)
    def test_load_index_returns_natural_type(self, fixture_state, version):
        index, engine, paths = fixture_state
        loaded = load_index(paths[version])
        reference = index if version in self.FLAT_VERSIONS else engine
        if version in self.FLAT_VERSIONS:
            assert isinstance(loaded, COAXIndex)
        else:
            assert isinstance(loaded, ShardedCOAX) and loaded.n_shards == 3
        if version >= 2:
            assert loaded.n_pending == reference.n_pending
        for query in self.PROBES:
            expected = np.sort(reference.range_query(query))
            if version == 1:
                # v1 carries no delta section: only the build rows load.
                expected = expected[expected < 800]
            assert np.array_equal(np.sort(loaded.range_query(query)), expected)

    @pytest.mark.parametrize("version", ALL_VERSIONS)
    def test_load_engine_always_returns_engine(self, fixture_state, version):
        index, engine, paths = fixture_state
        loaded = load_engine(paths[version])
        assert isinstance(loaded, ShardedCOAX)
        assert loaded.n_shards == (1 if version in self.FLAT_VERSIONS else 3)
        reference = index if version in self.FLAT_VERSIONS else engine
        for query in self.PROBES:
            expected = np.sort(reference.range_query(query))
            if version == 1:
                expected = expected[expected < 800]
            assert np.array_equal(np.sort(loaded.range_query(query)), expected)
        # The wrapped engine stays fully usable: CRUD plus compaction.
        new_id = loaded.insert({"x": 5.0, "y": 10.0})
        assert new_id == loaded.next_row_id - 1
        assert loaded.delete(new_id)
        loaded.compact()

    @pytest.mark.parametrize("version", (6, 7, 8))
    def test_only_clustered_grid_sections_reattach(
        self, fixture_state, version, monkeypatch
    ):
        """v8 reattaches its grids; v6/v7 grid sections are ignored and
        the index rebuilds from its groups, answering identically."""
        index, _, paths = fixture_state
        restored = []
        real_restore = SortedCellGridIndex._restore.__func__

        def spy(cls, *args, **kwargs):
            restored.append(kwargs["sort_dimension"])
            return real_restore(cls, *args, **kwargs)

        monkeypatch.setattr(SortedCellGridIndex, "_restore", classmethod(spy))
        loaded = load_index(paths[version])
        assert len(restored) == (2 if version == 8 else 0)
        for query in self.PROBES:
            assert np.array_equal(
                np.sort(loaded.range_query(query)), np.sort(index.range_query(query))
            )

    @pytest.mark.parametrize("version", ALL_VERSIONS)
    def test_every_version_converts_to_current_on_save(
        self, fixture_state, version, tmp_path
    ):
        """Loading any old format and saving writes a current (v8)
        directory that re-loads mmap-backed and answers bit-identically."""
        _, _, paths = fixture_state
        loaded = load_index(paths[version])
        converted_path = save_index(loaded, tmp_path / f"from_v{version}.coax")
        assert converted_path.is_dir()
        assert _manifest(converted_path)["meta"]["format_version"] == FORMAT_VERSION
        converted = load_index(converted_path)
        table = (
            converted.table
            if isinstance(converted, COAXIndex)
            else converted.shards[0].table
        )
        assert all(_mmap_backed(table.column(name)) for name in table.schema)
        for query in self.PROBES:
            assert np.array_equal(
                np.sort(converted.range_query(query)),
                np.sort(loaded.range_query(query)),
            )


class TestLayoutStatePersistence:
    """v7 round-trips the workload-adaptive layout monitor; pre-v7
    archives load with an empty monitor (or none, when layout is off)."""

    @pytest.fixture()
    def adaptive_engine(self):
        rng = np.random.default_rng(47)
        n = 4_000
        x = rng.uniform(0.0, 100.0, size=n)
        table = Table(
            {
                "x": x,
                "y": 2.0 * x + rng.uniform(-1, 1, size=n),
                "z": rng.uniform(0.0, 10.0, size=n),
            }
        )
        engine = ShardedCOAX(
            table,
            config=EngineConfig(
                n_shards=3,
                workers=1,
                layout=LayoutConfig(
                    enabled=True, sketch_size=64, min_queries=8, min_gain=1.0
                ),
            ),
        )
        # A hot region much narrower than the build-time shards, so the
        # monitor has something to learn and (at min_gain=1.0) adopt.
        for low in np.linspace(1.0, 6.0, 24):
            engine.range_query(
                Rectangle(
                    {
                        "x": Interval(low, low + 2.0),
                        "y": Interval(2 * low, 2 * low + 4.0),
                    }
                )
            )
        engine.compact()
        return engine

    PROBES = (
        Rectangle({"x": Interval(2.0, 7.0)}),
        Rectangle({"y": Interval(10.0, 30.0)}),
        Rectangle(),
    )

    def test_monitor_state_round_trips(self, adaptive_engine, tmp_path):
        engine = adaptive_engine
        assert engine.layout is not None
        assert engine.layout.epoch >= 1  # the fixture workload adopted
        path = save_index(engine, tmp_path / "adaptive.coax")
        assert _manifest(path)["meta"]["format_version"] == FORMAT_VERSION
        loaded = load_engine(path)
        assert loaded.layout is not None
        assert loaded.layout.epoch == engine.layout.epoch
        assert loaded.layout.observed == engine.layout.observed
        original = engine.layout.state()
        restored = loaded.layout.state()
        assert set(original) == set(restored)
        for name in original:
            assert np.array_equal(np.asarray(original[name]), np.asarray(restored[name]))
        for query in self.PROBES:
            assert np.array_equal(
                np.sort(loaded.range_query(query)),
                np.sort(engine.range_query(query)),
            )

    def test_pre_v7_archive_loads_with_empty_monitor(
        self, adaptive_engine, tmp_path
    ):
        engine = adaptive_engine
        path = save_index(engine, tmp_path / "adaptive.coax")
        legacy = TestFormatVersionMatrix._restamp_directory(
            path, tmp_path / "v6.coax", 6
        )
        loaded = load_engine(legacy)
        # v6 carried no layout section: the engine comes up with the
        # default (disabled) layout config and no monitor, but answers
        # queries over the adopted shard boundaries bit-identically.
        assert loaded.layout is None
        assert loaded.n_shards == engine.n_shards
        for query in self.PROBES:
            assert np.array_equal(
                np.sort(loaded.range_query(query)),
                np.sort(engine.range_query(query)),
            )

    def test_legacy_npz_strips_layout_state(self, adaptive_engine, tmp_path):
        engine = adaptive_engine
        path = save_index(engine, tmp_path / "adaptive.npz", layout="npz")
        with np.load(path, allow_pickle=False) as archive:
            meta = json.loads(str(archive["__meta__"]))
            assert not any(key.startswith("layout::") for key in archive.files)
        assert "layout" not in meta.get("engine", {})
        loaded = load_engine(path)
        assert loaded.layout is None
        for query in self.PROBES:
            assert np.array_equal(
                np.sort(loaded.range_query(query)),
                np.sort(engine.range_query(query)),
            )


class TestColumnarZeroCopy:
    """The v6 read path attaches columns instead of materialising them."""

    @pytest.fixture()
    def saved_index(self, tmp_path):
        rng = np.random.default_rng(31)
        n = 20_000
        x = rng.uniform(0.0, 100.0, size=n)
        y = 2.0 * x + rng.uniform(-1, 1, size=n)
        y[::19] += 40.0  # outliers, so the outlier grid is non-trivial
        table = Table({"x": x, "y": y, "z": rng.uniform(0.0, 10.0, size=n)})
        groups = [
            FDGroup(
                predictor="x",
                dependents=("y",),
                models={"y": LinearFDModel(2.0, 0.0, 1.5, 1.5)},
            )
        ]
        index = COAXIndex(table, groups=groups)
        return save_index(index, tmp_path / "big.coax")

    def test_loaded_columns_are_mapped(self, saved_index):
        loaded = load_index(saved_index)
        for name in loaded.table.schema:
            assert _mmap_backed(loaded.table.column(name))
        # The structured restore also reattaches the sub-index state
        # (clustered columns, grid row ids, run-search keys, distinct sort
        # keys) from the map.
        for grid in (loaded._primary, loaded._outlier):
            assert _mmap_backed(grid.row_ids)
            assert _mmap_backed(grid._rank_keys)
            assert _mmap_backed(grid._distinct)
            for column in grid._columns.values():
                assert _mmap_backed(column)

    def test_queries_never_materialise_full_columns(
        self, saved_index, monkeypatch
    ):
        """Larger-than-RAM smoke test stand-in: querying a mapped table
        must never funnel a whole column through a materialising call.
        Every full-column array of the loaded index is guarded; a
        wholesale ``np.asarray`` / ``np.ascontiguousarray`` on any of
        them (the call that would pull the file into memory under a
        capped materialisation budget) fails the test."""
        loaded = load_index(saved_index)
        queries = [
            Rectangle({"x": Interval(float(lo), float(lo) + 15.0)})
            for lo in range(0, 90, 9)
        ] + [Rectangle({"y": Interval(0.0, 120.0), "z": Interval(2.0, 8.0)})]
        expected = [loaded.table.select(query) for query in queries]

        guarded = {id(loaded.table.column(name)) for name in loaded.table.schema}
        for grid in (loaded._primary, loaded._outlier):
            guarded |= {id(column) for column in grid._columns.values()}
            guarded |= {id(grid.row_ids), id(grid._rank_keys), id(grid._distinct)}

        real_asarray = np.asarray
        real_ascontiguous = np.ascontiguousarray

        def guarded_asarray(a, *args, **kwargs):
            assert id(a) not in guarded, "full mapped column materialised"
            return real_asarray(a, *args, **kwargs)

        def guarded_ascontiguous(a, *args, **kwargs):
            assert id(a) not in guarded, "full mapped column materialised"
            return real_ascontiguous(a, *args, **kwargs)

        monkeypatch.setattr(np, "asarray", guarded_asarray)
        monkeypatch.setattr(np, "ascontiguousarray", guarded_ascontiguous)
        results = loaded.batch_range_query(queries)
        monkeypatch.undo()
        assert sum(len(r) for r in results) > 0
        for want, result in zip(expected, results):
            assert np.array_equal(np.sort(result), want)


class TestEngineExecutorPersistence:
    """``workers`` round-trips through the engine header and is
    overridable at load time (a deployment knob — the override wins);
    the header's ``executor`` key no longer selects anything."""

    @staticmethod
    def _engine(tmp_path, **config_kwargs):
        rng = np.random.default_rng(41)
        x = rng.uniform(0.0, 100.0, size=600)
        table = Table({"x": x, "y": 2.0 * x + rng.uniform(-1, 1, size=600)})
        engine = ShardedCOAX(
            table, config=EngineConfig(n_shards=3, **config_kwargs)
        )
        return save_index(engine, tmp_path / "engine.coax")

    def test_saved_executor_round_trips(self, tmp_path):
        path = self._engine(tmp_path, workers=4)
        manifest = json.loads((path / "manifest.json").read_text())
        assert manifest["meta"]["engine"]["executor"] == "thread"
        loaded = load_engine(path)
        assert loaded.config.executor == "thread"
        assert loaded.workers == 4
        loaded.close()

    def test_load_time_override_always_wins(self, tmp_path):
        path = self._engine(tmp_path, workers=4)
        loaded = load_engine(path, workers=2)
        assert loaded.workers == 2
        loaded.close()

    def test_process_executor_archive_loads_as_thread_engine(self, tmp_path):
        path = self._engine(tmp_path, workers=2)
        saved = load_engine(path)
        probes = [
            Rectangle({"x": Interval(10.0, 60.0)}),
            Rectangle({"y": Interval(30.0, 130.0)}),
            Rectangle({"x": Interval(5.0, 1.0)}),
            Rectangle(),
        ]
        expected = saved.batch_range_query(probes)
        saved.close()
        # An archive written while the process executor existed.
        manifest_path = path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["meta"]["engine"]["executor"] = "process"
        manifest_path.write_text(json.dumps(manifest))
        loaded = load_engine(path)
        assert loaded.config.executor == "thread"
        assert loaded.workers == 2
        for want, got in zip(expected, loaded.batch_range_query(probes)):
            assert np.array_equal(want, got)
        loaded.close()

    def test_pre_v6_archives_default_to_thread_executor(self, tmp_path):
        path = self._engine(tmp_path, workers=2)
        # Strip the executor field, as a v4/v5 writer would have.
        with np.load(
            save_index(load_engine(path), tmp_path / "legacy.npz", layout="npz"),
            allow_pickle=False,
        ) as archive:
            arrays = {key: archive[key] for key in archive.files}
        meta = json.loads(str(arrays["__meta__"]))
        meta["engine"].pop("executor", None)
        arrays["__meta__"] = np.array(json.dumps(meta))
        legacy = tmp_path / "pre_v6.npz"
        with legacy.open("wb") as handle:
            np.savez_compressed(handle, **arrays)
        loaded = load_engine(legacy)
        assert loaded.config.executor == "thread"
        assert loaded.workers == 2


class TestAdaptiveMonitorPersistence:
    """Format v5: drift-monitor state survives a save/load round trip."""

    GROUPS = [
        FDGroup(
            predictor="x",
            dependents=("y",),
            models={"y": LinearFDModel(2.0, 0.0, 1.5, 1.5)},
        )
    ]
    CONFIG = COAXConfig(
        maintenance=MaintenanceConfig(enabled=True, min_observations=100)
    )

    @staticmethod
    def _table(seed=23, n=600):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.0, 100.0, size=n)
        return Table({"x": x, "y": 2.0 * x + rng.uniform(-1, 1, size=n)})

    def test_flat_monitor_state_round_trips(self, tmp_path):
        index = COAXIndex(self._table(), config=self.CONFIG, groups=self.GROUPS)
        rng = np.random.default_rng(24)
        bx = rng.uniform(0.0, 100.0, size=150)
        index.insert_batch({"x": bx, "y": 2.0 * bx + 1.0})
        monitor = index.maintenance.monitor("x->y")
        assert monitor.n_streamed == 150
        path = save_index(index, tmp_path / "adaptive.coax")
        assert "monitor::x->y" in _manifest(path)["arrays"]
        loaded = load_index(path)
        assert loaded.maintenance is not None
        restored = loaded.maintenance.monitor("x->y")
        assert restored.n_streamed == 150
        assert np.allclose(restored.state_vector(), monitor.state_vector())
        config = loaded.maintenance.config
        assert restored.decide(config) == monitor.decide(config)

    def test_engine_shared_monitor_state_round_trips(self, tmp_path):
        engine = ShardedCOAX(
            self._table(),
            config=EngineConfig(n_shards=3, workers=1, coax=self.CONFIG),
            groups=self.GROUPS,
        )
        rng = np.random.default_rng(25)
        bx = rng.uniform(0.0, 100.0, size=200)
        engine.insert_batch({"x": bx, "y": 2.0 * bx + 1.0})
        assert engine.maintenance.monitor("x->y").n_streamed == 200
        path = save_index(engine, tmp_path / "adaptive_engine.npz")
        loaded = load_engine(path)
        assert loaded.maintenance is not None
        # Shards never carry their own manager — refresh stays coordinated.
        assert all(shard.maintenance is None for shard in loaded.shards)
        restored = loaded.maintenance.monitor("x->y")
        assert restored.n_streamed == 200
        assert np.allclose(
            restored.state_vector(),
            engine.maintenance.monitor("x->y").state_vector(),
        )

    def test_wrapped_flat_adaptive_archive_promotes_manager_to_engine(
        self, tmp_path
    ):
        """``load_engine`` on a flat adaptive archive must move the
        monitors to the engine: a shard refreshing its own models would
        diverge from the groups the engine translates batch queries with."""
        index = COAXIndex(self._table(), config=self.CONFIG, groups=self.GROUPS)
        rng = np.random.default_rng(27)
        bx = rng.uniform(0.0, 100.0, size=300)
        index.insert_batch({"x": bx, "y": 2.0 * bx + 60.0})
        path = save_index(index, tmp_path / "flat_adaptive.npz")
        engine = load_engine(path)
        assert engine.maintenance is not None
        assert all(shard.maintenance is None for shard in engine.shards)
        # The restored monitor state came along with the promotion.
        assert engine.maintenance.monitor("x->y").n_streamed == 300
        # An engine-coordinated refresh fires and shards follow the
        # engine's groups — batch and scalar stay in lockstep.
        engine.compact()
        assert engine.maintenance.monitor("x->y").epoch >= 1
        for shard in engine.shards:
            assert shard.groups == engine.groups
        everything = Rectangle()
        assert np.array_equal(
            np.sort(engine.range_query(everything)),
            np.sort(engine.batch_range_query([everything])[0]),
        )

    def test_pre_v5_archive_loads_with_fresh_monitors(self, tmp_path):
        """A re-stamped v3 archive of an adaptive index loads: the config
        round-trips, the monitors just start from scratch."""
        index = COAXIndex(self._table(), config=self.CONFIG, groups=self.GROUPS)
        rng = np.random.default_rng(26)
        bx = rng.uniform(0.0, 100.0, size=150)
        index.insert_batch({"x": bx, "y": 2.0 * bx + 1.0})
        path = save_index(index, tmp_path / "v5.npz", layout="npz")
        with np.load(path, allow_pickle=False) as archive:
            arrays = {key: archive[key] for key in archive.files}
        meta = json.loads(str(arrays["__meta__"]))
        meta["format_version"] = 3
        arrays = {
            key: value
            for key, value in arrays.items()
            if not key.startswith("monitor::") and key != "__meta__"
        }
        arrays["__meta__"] = np.array(json.dumps(meta))
        legacy = tmp_path / "v3.npz"
        with legacy.open("wb") as handle:
            np.savez_compressed(handle, **arrays)
        loaded = load_index(legacy)
        assert loaded.maintenance is not None
        assert loaded.maintenance.monitor("x->y").n_streamed == 0
        assert loaded.n_pending == index.n_pending


class TestCSV:
    def test_round_trip(self, tmp_path):
        table = Table({"a": np.array([1.5, 2.5]), "b": np.array([-1.0, 4.0])})
        path = save_csv(table, tmp_path / "t.csv")
        loaded, encodings = load_csv(path)
        assert list(loaded.schema) == ["a", "b"]
        assert np.allclose(loaded.column("a"), table.column("a"))
        assert encodings == {"a": {}, "b": {}}

    def test_column_subset_and_max_rows(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b,c\n1,2,3\n4,5,6\n7,8,9\n")
        loaded, _ = load_csv(path, columns=["c", "a"], max_rows=2)
        assert list(loaded.schema) == ["c", "a"]
        assert loaded.n_rows == 2

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(KeyError):
            load_csv(path, columns=["zzz"])

    def test_string_columns_skipped_by_default(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("num,label\n1.0,apple\n2.0,pear\n")
        loaded, _ = load_csv(path)
        assert list(loaded.schema) == ["num"]

    def test_string_columns_encoded_on_request(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("num,label\n1.0,apple\n2.0,pear\n3.0,apple\n")
        loaded, encodings = load_csv(path, encode_strings=True)
        assert "label" in loaded.schema
        assert encodings["label"] == {"apple": 0.0, "pear": 1.0}
        assert loaded.column("label").tolist() == [0.0, 1.0, 0.0]

    def test_missing_values_imputed(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a\n1.0\n\n3.0\nNA\n")
        loaded, _ = load_csv(path)
        assert loaded.n_rows == 3  # the fully empty line is skipped
        assert not np.any(np.isnan(loaded.column("a")))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError):
            load_csv(path)

    def test_all_string_file_rejected_without_encoding(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("label\nx\ny\n")
        with pytest.raises(ValueError):
            load_csv(path)

    def test_encode_categories_is_stable(self):
        assert encode_categories(["b", "a", "b"]) == {"a": 0.0, "b": 1.0}


class TestNPZ:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        table = Table({"x": rng.uniform(size=50), "y": rng.normal(size=50)})
        path = save_npz(table, tmp_path / "t.npz")
        loaded = load_npz(path)
        assert set(loaded.schema) == {"x", "y"}
        assert np.allclose(loaded.column("x"), table.column("x"))
