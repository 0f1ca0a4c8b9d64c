"""Content-addressed checkpoint store: keys, verification, journal order."""

from repro.supervision.checkpoint import CheckpointStore, checkpoint_key


class TestCheckpointKey:
    def test_key_is_stable(self):
        config = {"linkage": "GROUP_AVERAGE", "n_sample": 60}
        assert checkpoint_key(0, config, "linkage") == checkpoint_key(0, config, "linkage")

    def test_key_ignores_dict_ordering(self):
        a = {"x": 1, "y": 2}
        b = {"y": 2, "x": 1}
        assert checkpoint_key(3, a, "cut") == checkpoint_key(3, b, "cut")

    def test_key_separates_seed_config_stage(self):
        config = {"n_sample": 60}
        base = checkpoint_key(0, config, "sample")
        assert checkpoint_key(1, config, "sample") != base
        assert checkpoint_key(0, {"n_sample": 61}, "sample") != base
        assert checkpoint_key(0, config, "linkage") != base


class TestInMemoryStore:
    def test_save_load_roundtrip(self):
        store = CheckpointStore()
        key = checkpoint_key(0, {}, "sample")
        store.save(key, "sample", [1, 2, 3])
        assert store.load(key) == [1, 2, 3]
        assert store.stages == ["sample"]

    def test_missing_key_returns_none(self):
        assert CheckpointStore().load("0" * 64) is None

    def test_corrupt_payload_degrades_to_missing(self):
        store = CheckpointStore()
        key = checkpoint_key(0, {}, "linkage")
        store.save(key, "linkage", {"a": 1})
        store._blobs[key] = b"flipped bits"  # simulate memory corruption
        assert store.load(key) is None
        assert store.corrupt_detected == 1
        assert key not in store._index  # evicted; the stage will recompute

    def test_journal_records_completion_order(self):
        store = CheckpointStore()
        for stage in ("collect", "payload_check", "sample"):
            store.save(checkpoint_key(0, {}, stage), stage, stage.upper())
        assert store.stages == ["collect", "payload_check", "sample"]
