"""Tests for the on-disk result cache."""

import os

import pytest

from zerosum import cache
from zerosum.factorizations import minimal_divisors
from zerosum.gf2 import SweepRecord
from zerosum.groups import make_group
from zerosum.sequences import Sequence


@pytest.fixture
def tmp_cache(tmp_path, monkeypatch):
    monkeypatch.setenv(cache.ENV_VAR, str(tmp_path))
    return tmp_path


def atom_key(seq):
    return tuple(sorted(seq.counts().items()))


class TestRecords:
    def test_round_trip(self, tmp_cache):
        cache.put_record("meta", ("a", 1), {"x": 1, "y": [2, 3]})
        assert cache.get_record("meta", ("a", 1)) == {"x": 1, "y": [2, 3]}

    def test_miss_returns_none(self, tmp_cache):
        assert cache.get_record("meta", ("absent",)) is None

    def test_distinct_keys_do_not_collide(self, tmp_cache):
        cache.put_record("meta", ("a",), {"v": 1})
        cache.put_record("meta", ("b",), {"v": 2})
        assert cache.get_record("meta", ("a",)) == {"v": 1}
        assert cache.get_record("meta", ("b",)) == {"v": 2}

    def test_corrupt_file_is_ignored(self, tmp_cache):
        cache.put_record("meta", ("a",), {"v": 1})
        path = cache._record_path("meta", ("a",))
        with open(path, "w") as handle:
            handle.write("{not json")
        assert cache.get_record("meta", ("a",)) is None

    def test_env_var_controls_location(self, tmp_cache):
        cache.put_record("meta", ("a",), {"v": 1})
        assert any(tmp_cache.rglob("*.json"))


class TestSweeps:
    def rec(self):
        return SweepRecord(r=5, complement_size=3, pieces=9, instances=4960, failures=0)

    def test_round_trip(self, tmp_cache):
        rec = self.rec()
        cache.store_sweep(rec)
        back = cache.load_sweep(5, 3, 9)
        assert back == rec
        assert back.digest == rec.digest

    def test_miss(self, tmp_cache):
        assert cache.load_sweep(5, 4, 9) is None

    def test_tampered_instances_rejected(self, tmp_cache):
        cache.store_sweep(self.rec())
        path = cache._record_path("sweeps", ("sweep", 5, 3, 9))
        data = open(path).read().replace("4960", "4961")
        with open(path, "w") as handle:
            handle.write(data)
        # digest no longer matches the stored fields
        assert cache.load_sweep(5, 3, 9) is None


class TestAtoms:
    def setup_method(self):
        self.G = make_group((3, 3))
        self.S = Sequence.from_counts(self.G, {(1, 0): 2, (0, 1): 2, (2, 2): 2})

    def test_round_trip(self, tmp_cache):
        atoms = list(minimal_divisors(self.S))
        cache.store_atoms(self.G, self.S, None, atoms)
        back = cache.load_atoms(self.G, self.S, None)
        assert back is not None
        assert sorted(map(atom_key, back)) == sorted(map(atom_key, atoms))
        assert all(a.group == self.G for a in back)

    def test_generator_input_is_materialized(self, tmp_cache):
        cache.store_atoms(self.G, self.S, None, minimal_divisors(self.S))
        back = cache.load_atoms(self.G, self.S, None)
        expected = list(minimal_divisors(self.S))
        assert sorted(map(atom_key, back)) == sorted(map(atom_key, expected))

    def test_cap_is_part_of_the_key(self, tmp_cache):
        atoms = list(minimal_divisors(self.S))
        cache.store_atoms(self.G, self.S, 3, atoms)
        assert cache.load_atoms(self.G, self.S, None) is None
        assert cache.load_atoms(self.G, self.S, 3) is not None

    def test_truncated_blob_rejected(self, tmp_cache):
        cache.store_atoms(self.G, self.S, None, list(minimal_divisors(self.S)))
        path = cache._atoms_path(self.G, self.S, None)
        blob = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(blob[:-3])
        assert cache.load_atoms(self.G, self.S, None) is None

    def test_trailing_garbage_rejected(self, tmp_cache):
        cache.store_atoms(self.G, self.S, None, list(minimal_divisors(self.S)))
        path = cache._atoms_path(self.G, self.S, None)
        with open(path, "ab") as handle:
            handle.write(b"\x00\x00")
        assert cache.load_atoms(self.G, self.S, None) is None

    def test_wrong_magic_rejected(self, tmp_cache):
        cache.store_atoms(self.G, self.S, None, list(minimal_divisors(self.S)))
        path = cache._atoms_path(self.G, self.S, None)
        blob = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(b"XXXX" + blob[4:])
        assert cache.load_atoms(self.G, self.S, None) is None


class TestSafety:
    def test_deleting_cache_only_slows_things_down(self, tmp_cache):
        from zerosum.invariants import davenport_k

        G = make_group((2, 2, 2))
        davenport_k.cache_clear()
        first = davenport_k(G, 2).value
        for root, _dirs, files in os.walk(tmp_cache):
            for name in files:
                os.unlink(os.path.join(root, name))
        davenport_k.cache_clear()
        assert davenport_k(G, 2).value == first
