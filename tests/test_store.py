import threading
import time

import pytest

from gridmesh.store import (AlreadyExistsError, FileStore, InvalidKeyError,
                            NotFoundError, result_key, upload_key, validate_key)


@pytest.fixture
def store(tmp_path):
    return FileStore(tmp_path / "store")


RID = "ab" * 16


class TestKeys:
    def test_helpers_validate(self):
        for key in (upload_key(RID, "R1"), upload_key(RID, "R2"), result_key(RID)):
            validate_key(key)

    def test_shape_enforced(self):
        for bad in ("", "x", "runs/a/regions/r", "runs/a/regions/r/nope",
                    "runs/a/regions/r/partial_y", "runs/a/regions/r/scenarios",
                    "other/a/regions/r/result", "runs//regions/r/result",
                    "runs/a/regions/../result/x", "runs/a/regions/r/result/extra"):
            with pytest.raises(InvalidKeyError):
                validate_key(bad)

    def test_length_cap(self):
        with pytest.raises(InvalidKeyError):
            validate_key(f"runs/{'a' * 600}/regions/r/result")

    def test_traversal_blocked(self):
        with pytest.raises(InvalidKeyError):
            validate_key("runs/../regions/r/upload")


class TestPutGet:
    def test_roundtrip(self, store):
        key = upload_key(RID, "R1")
        store.put(key, b"hello world")
        assert store.get(key) == b"hello world"

    def test_duplicate_put_rejected(self, store):
        key = upload_key(RID, "R1")
        store.put(key, b"first")
        with pytest.raises(AlreadyExistsError):
            store.put(key, b"second")
        assert store.get(key) == b"first"      # first wins

    def test_empty_blob(self, store):
        key = upload_key(RID, "R2")
        store.put(key, b"")
        assert store.exists(key)
        assert store.get(key) == b""

    def test_get_absent(self, store):
        with pytest.raises(NotFoundError):
            store.get(result_key(RID))

    def test_invalid_key_rejected_on_put(self, store):
        with pytest.raises(InvalidKeyError):
            store.put("runs/x/bad", b"data")


class TestList:
    def test_prefix_and_order(self, store):
        keys = [upload_key("r1" * 16, "RB"), upload_key("r1" * 16, "RA"),
                result_key("r1" * 16), upload_key("r2" * 16, "RA")]
        for k in keys:
            store.put(k, b"x")
        got = store.list(f"runs/{'r1' * 16}/")
        assert got == sorted(k for k in keys if k.startswith(f"runs/{'r1' * 16}/"))

    def test_list_everything(self, store):
        store.put(result_key(RID), b"x")
        assert store.list() == [result_key(RID)]


class TestWaitFor:
    def test_already_present_completes_immediately(self, store):
        key = upload_key(RID, "R1")
        store.put(key, b"x")
        t0 = time.time()
        res = store.wait_for([key], deadline=time.time() + 5)
        assert res.complete and time.time() - t0 < 0.5

    def test_timeout_lists_missing(self, store):
        present = upload_key(RID, "R1")
        absent = upload_key(RID, "R2")
        store.put(present, b"x")
        res = store.wait_for([present, absent], deadline=time.time() + 0.15)
        assert not res.complete
        assert res.missing == (absent,)

    def test_unblocks_on_late_write(self, store):
        key = upload_key(RID, "R3")

        def writer():
            time.sleep(0.1)
            store.put(key, b"late")

        threading.Thread(target=writer).start()
        res = store.wait_for([key], deadline=time.time() + 5)
        assert res.complete


class TestConcurrency:
    def test_concurrent_puts_one_winner(self, store):
        key = result_key(RID)
        outcomes = []
        barrier = threading.Barrier(8)

        def racer(i):
            barrier.wait()
            try:
                store.put(key, f"writer-{i}".encode())
                outcomes.append(("ok", i))
            except AlreadyExistsError:
                outcomes.append(("dup", i))

        threads = [threading.Thread(target=racer, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sum(1 for o, _ in outcomes if o == "ok") == 1
        assert store.get(key).startswith(b"writer-")

    def test_readers_never_see_partial_blob(self, store):
        # a reader either misses the key or sees the complete content
        blob = b"A" * 1_000_000
        key = upload_key(RID, "R9")
        seen = []

        def reader():
            for _ in range(200):
                try:
                    seen.append(len(store.get(key)))
                except NotFoundError:
                    pass

        t = threading.Thread(target=reader)
        t.start()
        store.put(key, blob)
        t.join()
        assert all(n == len(blob) for n in seen)

    def test_content_hash_stable(self, store):
        key = result_key(RID)
        store.put(key, b"fixed")
        for _ in range(3):
            assert store.get(key) == b"fixed"
        with pytest.raises(AlreadyExistsError):
            store.put(key, b"mutation attempt")
        assert store.get(key) == b"fixed"
