import errno
import json
import struct
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrcal import core
from mrcal.core import (
    DTYPE_F32,
    DTYPE_U8,
    BadMagic,
    BinaryMask,
    ContainerError,
    CorruptFile,
    DimensionMismatch,
    DimOverflow,
    ForegroundProbMap,
    Grid2D,
    ManifestParseError,
    MissingFile,
    NonFiniteValues,
    RaterCountMismatch,
    RaterStack,
    TruncatedPayload,
    UnreadableFile,
    UnsupportedDtype,
    WorkerPool,
    load_dataset,
    parse_manifest,
    read_container,
    write_container,
    write_together,
)
from mrcal.ordinal import OrcMap, OrdinalProbMap


def test_u8_header_decode(tmp_path):
    path = tmp_path / "a.mrc"
    write_container(DTYPE_U8, (2, 2), [0, 1, 1, 0], path)
    dtype, dims, arr = read_container(path)
    assert dtype == DTYPE_U8
    assert dims == (2, 2)
    np.testing.assert_array_equal(arr, [[0, 1], [1, 0]])
    mask = BinaryMask(arr)
    assert mask.shape == (2, 2)


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.mrc"
    path.write_bytes(b"XXXX" + bytes(20))
    with pytest.raises(BadMagic):
        read_container(path)


def test_unsupported_dtype(tmp_path):
    path = tmp_path / "bad.mrc"
    path.write_bytes(b"MRC1" + bytes([9, 2, 0, 0]) + bytes(8))
    with pytest.raises(UnsupportedDtype):
        read_container(path)


def test_truncated_payload(tmp_path):
    path = tmp_path / "a.mrc"
    write_container(DTYPE_F32, (4, 4), np.zeros((4, 4)), path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-3])
    with pytest.raises(TruncatedPayload):
        read_container(path)


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "a.mrc"
    write_container(DTYPE_F32, (4, 4), np.zeros((4, 4)), path)
    path.write_bytes(path.read_bytes() + b"xx")
    with pytest.raises(ContainerError, match="expected 80 bytes, file has 82"):
        read_container(path)


def test_file_size_arithmetic(tmp_path):
    # 8 header bytes + 4*ndim dim bytes + payload
    path = tmp_path / "a.mrc"
    write_container(DTYPE_U8, (1, 1), [1], path)
    assert path.stat().st_size == 8 + 8 + 1


def test_f32_little_endian(tmp_path):
    path = tmp_path / "a.mrc"
    write_container(DTYPE_F32, (1,), [1.0], path)
    raw = path.read_bytes()
    assert raw[-4:] == bytes([0x00, 0x00, 0x80, 0x3F])


def test_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(7)
    grid = rng.random((17, 31)).astype(np.float32)
    path = tmp_path / "rt.mrc"
    write_container(DTYPE_F32, grid.shape, grid, path)
    _, dims, back = read_container(path)
    assert dims == (17, 31)
    assert back.tobytes() == grid.tobytes()


@pytest.mark.parametrize("dims", [(5,), (3, 4), (2, 3, 4)])
def test_round_trip_all_ndims(tmp_path, dims):
    rng = np.random.default_rng(sum(dims))
    arr = rng.integers(0, 2, size=dims).astype(np.uint8)
    path = tmp_path / "nd.mrc"
    write_container(DTYPE_U8, dims, arr, path)
    _, back_dims, back = read_container(path)
    assert back_dims == dims
    np.testing.assert_array_equal(back, arr)


def test_u8_prob_rescale_rule(tmp_path):
    # a u8 image loads as value/255, not reinterpreted bitwise
    path = _write_dataset(tmp_path, n=1)
    pixels = np.arange(0, 256, 17, dtype=np.uint8).reshape(4, 4)
    write_container(DTYPE_U8, pixels.shape, pixels, tmp_path / "s0_img.mrc")
    image = load_dataset(path)["train"][0].image.data
    assert image.dtype == np.float64
    np.testing.assert_array_equal(image, pixels.astype(np.float64) / 255.0)
    assert (image[0, 0], image[-1, -1]) == (0.0, 1.0)


def test_grid_invariants():
    with pytest.raises(ValueError):
        Grid2D(np.zeros(5))
    with pytest.raises(ValueError, match="dims must be positive"):
        Grid2D(np.zeros((0, 3)))
    g = Grid2D(np.zeros((2, 3)))
    assert g.shape == (2, 3)
    with pytest.raises(ValueError):
        g.data[0, 0] = 1.0  # immutable


def test_binary_mask_rejects_other_values():
    with pytest.raises(ValueError):
        BinaryMask(np.array([[0, 2]]))
    # checked before the uint8 cast, which would turn 0.5 into 0
    with pytest.raises(ValueError, match="0 or 1"):
        BinaryMask(np.array([[0.0, 0.5]]))
    mask = BinaryMask(np.array([[True, False]]))
    assert mask.data.dtype == np.uint8
    np.testing.assert_array_equal(mask.data, [[1, 0]])


def test_prob_map_bounds():
    with pytest.raises(ValueError):
        ForegroundProbMap(np.array([[0.5, 1.5]]))
    # tiny excursions clamp
    pm = ForegroundProbMap(np.array([[1.0 + 5e-7]]))
    assert pm.data[0, 0] == 1.0
    # beyond CLAMP_TOL the map is rejected, not clamped
    with pytest.raises(ValueError, match="outside"):
        ForegroundProbMap(np.array([[1.0 + 2e-6]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_prob_map_rejects_non_finite(bad):
    arr = np.array([[0.5, bad], [0.2, 0.7]])
    with pytest.raises(NonFiniteValues, match="1 of 4"):
        ForegroundProbMap(arr)
    with pytest.raises(NonFiniteValues):
        ForegroundProbMap(arr.astype(np.float32))


@pytest.mark.parametrize(
    "build, arr",
    [
        (Grid2D, np.random.default_rng(0).random((3, 4))),
        (BinaryMask, np.array([[0, 1, 1], [1, 0, 0]], dtype=np.uint8)),
        (ForegroundProbMap, np.random.default_rng(1).random((4, 3))),
        (lambda a: OrcMap(a, num_raters=3), np.array([[0, 3], [2, 1]], dtype=np.int64)),
        (RaterStack, np.array([[[0, 1]], [[1, 1]]], dtype=np.uint8)),
        (
            lambda a: OrdinalProbMap(a, num_raters=1),
            np.stack([np.full((2, 2), 0.25), np.full((2, 2), 0.75)]),
        ),
    ],
    ids=["Grid2D", "BinaryMask", "ForegroundProbMap", "OrcMap", "RaterStack", "OrdinalProbMap"],
)
def test_checked_types_store_one_read_only_copy(build, arr):
    stored = next(v for v in vars(build(arr)).values() if isinstance(v, np.ndarray))
    assert not stored.flags.writeable
    assert not np.shares_memory(stored, arr)
    before = stored.copy()
    arr += 1
    np.testing.assert_array_equal(stored, before)


def _write_dataset(tmp_path, num_raters=3, n=2, break_dims=False, drop_rater=False):
    entries = []
    for i in range(n):
        sid = f"s{i}"
        img = np.zeros((4, 4), dtype=np.float32)
        write_container(DTYPE_F32, img.shape, img, tmp_path / f"{sid}_img.mrc")
        rater_paths = []
        for r in range(num_raters):
            shape = (8, 8) if (break_dims and i == 0 and r == 0) else (4, 4)
            write_container(
                DTYPE_U8, shape, np.zeros(shape, dtype=np.uint8),
                tmp_path / f"{sid}_r{r}.mrc",
            )
            rater_paths.append(f"{sid}_r{r}.mrc")
        if drop_rater and i == 0:
            rater_paths = rater_paths[:-1]
        entries.append(
            {
                "id": sid,
                "image_path": f"{sid}_img.mrc",
                "rater_paths": rater_paths,
                "split": "train",
            }
        )
    manifest = {"version": "1", "num_raters": num_raters, "samples": entries}
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    return path


def test_load_dataset_happy_path(tmp_path):
    path = _write_dataset(tmp_path)
    dataset = load_dataset(path)
    assert len(dataset["train"]) == 2
    assert dataset["train"][0].annotations.num_raters == 3


def test_load_dataset_dimension_mismatch_names_sample(tmp_path):
    path = _write_dataset(tmp_path, break_dims=True)
    with pytest.raises(DimensionMismatch, match="s0"):
        load_dataset(path)


def test_load_dataset_rater_count_mismatch(tmp_path):
    path = _write_dataset(tmp_path, drop_rater=True)
    with pytest.raises(RaterCountMismatch):
        load_dataset(path)


def test_load_dataset_missing_file(tmp_path):
    path = _write_dataset(tmp_path)
    (tmp_path / "s0_r1.mrc").unlink()
    with pytest.raises(MissingFile):
        load_dataset(path)


def test_load_dataset_directory_entry_is_unreadable(tmp_path):
    path = _write_dataset(tmp_path)
    (tmp_path / "s1_r2.mrc").unlink()
    (tmp_path / "s1_r2.mrc").mkdir()
    with pytest.raises(UnreadableFile, match="s1_r2.mrc"):
        load_dataset(path)


@pytest.mark.parametrize("field", ["image_path", "rater_paths"])
@pytest.mark.parametrize(
    "case, error",
    [
        ("missing", MissingFile),
        ("nul byte", MissingFile),
        ("through a file", MissingFile),
        ("directory", UnreadableFile),
        ("wrong ndim", CorruptFile),
        ("zero dim", CorruptFile),
        ("dim zero", CorruptFile),
    ],
)
def test_load_dataset_error_contract(tmp_path, case, error, field):
    path = _write_dataset(tmp_path)
    # the image of sample s0, or its second rater mask
    name = "s0_img.mrc" if field == "image_path" else "s0_r1.mrc"
    target = tmp_path / name
    if case == "missing":
        target.unlink()
    elif case == "nul byte":
        name = name.replace(".", "\0.")
    elif case == "through a file":
        name += "/x"  # ENOTDIR: a regular file part-way along the path
    elif case == "directory":
        target.unlink()
        target.mkdir()
    elif case == "wrong ndim":
        write_container(DTYPE_U8, (1, 4, 4), np.zeros(16), target)
    else:  # a u8 header with one zero dim and an empty payload
        dims = (0, 4) if case == "zero dim" else (4, 0)
        target.write_bytes(b"MRC1" + struct.pack("<BBH2I", DTYPE_U8, 2, 0, *dims))
    doc = json.loads(path.read_text())
    if field == "image_path":
        doc["samples"][0]["image_path"] = name
    else:
        doc["samples"][0]["rater_paths"][1] = name
    path.write_text(json.dumps(doc))
    with pytest.raises(error) as exc:
        load_dataset(path)
    assert str(tmp_path / name) in str(exc.value)


def test_load_dataset_permission_denied_is_unreadable(tmp_path, monkeypatch):
    # a directory on the path without search permission: open() raises EACCES
    # (simulated, since root may open any file)
    path = _write_dataset(tmp_path)

    def no_permission(file):
        raise PermissionError(errno.EACCES, "Permission denied", str(file))

    monkeypatch.setattr(core, "read_container", no_permission)
    with pytest.raises(UnreadableFile, match="s0_img.mrc: Permission denied"):
        load_dataset(path)


def _write_split_dataset(tmp_path, size=4, splits=("train", "val", "test", "train", "test")):
    """A dataset with random images and masks, one sample per split given."""
    rng = np.random.default_rng(0)
    entries = []
    for i, split in enumerate(splits):
        sid = f"s{i}"
        write_container(DTYPE_F32, (size, size), rng.random((size, size)), tmp_path / f"{sid}.mrc")
        rater_paths = [f"{sid}_r{r}.mrc" for r in range(3)]
        for rp in rater_paths:
            write_container(DTYPE_U8, (size, size), rng.integers(0, 2, (size, size)), tmp_path / rp)
        entries.append(
            {"id": sid, "image_path": f"{sid}.mrc", "rater_paths": rater_paths, "split": split}
        )
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"version": "1", "num_raters": 3, "samples": entries}))
    return path


def test_load_dataset_keeps_only_requested_splits(tmp_path):
    path = _write_split_dataset(tmp_path)
    full = load_dataset(path)
    only = load_dataset(path, splits=("test",))
    assert only["train"] == [] and only["val"] == []
    assert [s.id for s in only["test"]] == [s.id for s in full["test"]] == ["s2", "s4"]
    for a, b in zip(only["test"], full["test"]):
        assert a.image.data.tobytes() == b.image.data.tobytes()
        assert a.annotations.masks.tobytes() == b.annotations.masks.tobytes()


def test_load_dataset_validates_unrequested_splits(tmp_path):
    path = _write_split_dataset(tmp_path)
    write_container(DTYPE_U8, (4, 4), np.full((4, 4), 2), tmp_path / "s1_r0.mrc")  # val
    with pytest.raises(CorruptFile, match="s1_r0.mrc"):
        load_dataset(path, splits=("test",))


def test_split_load_does_not_keep_other_splits(tmp_path):
    # 2 test samples of 10 at 64x64: 45 KB of float64 image and uint8 masks each
    splits = ("train",) * 6 + ("val",) * 2 + ("test",) * 2
    path = _write_split_dataset(tmp_path, size=64, splits=splits)
    sample_bytes = 64 * 64 * (8 + 3)
    traced = {}
    for requested in (("test",), ("train", "val", "test")):
        tracemalloc.start()
        dataset = load_dataset(path, splits=requested)
        traced[requested] = tracemalloc.get_traced_memory()  # (current, peak)
        tracemalloc.stop()
        del dataset
    kept, peak = traced[("test",)]
    # another split's sample dies once it is checked: never more than one extra in memory
    assert kept < 3 * sample_bytes and peak < 4 * sample_bytes
    assert traced[("train", "val", "test")][0] > 10 * sample_bytes


@pytest.mark.parametrize("corruption", ["magic", "ndim", "zero_dims", "truncated", "mask_shape"])
def test_corrupt_image_in_unrequested_split_fails_alike(tmp_path, corruption):
    # s1 is the val sample: a load that keeps only the test split still checks it
    path = _write_split_dataset(tmp_path)
    image = tmp_path / "s1.mrc"
    if corruption == "magic":
        image.write_bytes(b"NOPE" + image.read_bytes()[4:])
    elif corruption == "ndim":
        write_container(DTYPE_F32, (1, 4, 4), np.zeros((1, 4, 4)), image)
    elif corruption == "zero_dims":
        image.write_bytes(b"MRC1" + struct.pack("<BBH2I", DTYPE_F32, 2, 0, 0, 4))
    elif corruption == "truncated":
        image.write_bytes(image.read_bytes()[:-1])
    else:
        write_container(DTYPE_F32, (4, 5), np.zeros((4, 5)), image)
    error = DimensionMismatch if corruption == "mask_shape" else CorruptFile
    messages = set()
    for requested in (("val",), ("test",)):
        with pytest.raises(error) as exc:
            load_dataset(path, splits=requested)
        messages.add(str(exc.value))
    assert len(messages) == 1
    assert "s1" in messages.pop()


def test_only_kept_images_are_converted(tmp_path, monkeypatch):
    path = _write_split_dataset(tmp_path)
    converted = []

    def image_grid(dtype, arr, real=core._image_grid):
        converted.append(arr.shape)
        return real(dtype, arr)

    monkeypatch.setattr(core, "_image_grid", image_grid)
    dataset = load_dataset(path, splits=("test",))
    assert len(converted) == len(dataset["test"]) == 2


class TestOrderedMap:
    """`WorkerPool.map`: results in item order, a bounded window, cancel and join."""

    def test_results_come_back_in_item_order(self, monkeypatch):
        monkeypatch.setenv("MRCAL_THREADS", "4")

        def square(i):
            time.sleep(0.001 * (i % 5))  # later items often finish first
            return i * i

        with WorkerPool(30) as pool:
            assert list(pool.map(square, range(30))) == [i * i for i in range(30)]

    @pytest.mark.parametrize("threads, n", [("1", 6), ("4", 1)])
    def test_runs_inline_on_the_calling_thread(self, monkeypatch, threads, n):
        monkeypatch.setenv("MRCAL_THREADS", threads)
        before = threading.active_count()
        seen = []

        def record(i):
            seen.append((threading.get_ident(), threading.active_count()))
            return i

        with WorkerPool(n) as pool:
            assert list(pool.map(record, range(n))) == list(range(n))
        assert seen == [(threading.get_ident(), before)] * n

    def test_at_most_the_window_in_flight(self, monkeypatch):
        workers = 3
        monkeypatch.setenv("MRCAL_THREADS", str(workers))
        lock = threading.Lock()
        started = []

        def record(i):
            with lock:
                started.append(i)
            return i

        ahead = []
        with WorkerPool(40) as pool:
            for i in pool.map(record, range(40)):
                time.sleep(0.005)  # a slow consumer: the workers run as far ahead as they may
                with lock:
                    ahead.append(max(started) - i)
        # holding result i, items i .. i + 2 x workers - 1 are the most submitted
        assert max(ahead) == 2 * workers - 1
        assert sorted(started) == list(range(40))

    def test_first_failing_item_is_raised_and_workers_joined(self, monkeypatch):
        workers = 4
        monkeypatch.setenv("MRCAL_THREADS", str(workers))
        before = threading.active_count()
        started = []

        def work(i):
            started.append(i)
            if i == 9:
                time.sleep(0.05)
                raise ValueError("item 9")
            if i == 12:
                raise ValueError("item 12")  # fails first in time, later in item order
            return i

        results = []
        with pytest.raises(ValueError, match="item 9"), WorkerPool(100) as pool:
            for result in pool.map(work, range(100)):
                results.append(result)
        assert results == list(range(9))
        assert max(started) < 9 + 2 * workers  # the rest were never started
        assert threading.active_count() == before

    def test_failure_cancels_calls_not_yet_started(self, monkeypatch):
        # 2 workers, 4 in flight: item 0 fails once item 1 runs; the freed
        # worker may or may not take item 2 before the cancel, and item 3
        # waits in the queue behind two sleeping calls
        monkeypatch.setenv("MRCAL_THREADS", "2")
        started = set()
        one_started = threading.Event()

        def work(i):
            started.add(i)
            if i == 0:
                assert one_started.wait(10)
                raise ValueError("item 0")
            if i == 1:
                one_started.set()
            time.sleep(0.2)
            return i

        with pytest.raises(ValueError, match="item 0"), WorkerPool(10) as pool:
            list(pool.map(work, range(10)))
        assert {0, 1} <= started <= {0, 1, 2}

    def test_pool_serves_several_maps_then_joins(self, monkeypatch):
        """One pool runs map after map on the same threads, as `train` runs
        its batches; leaving it joins them."""
        monkeypatch.setenv("MRCAL_THREADS", "3")
        before = threading.active_count()
        threads = set()

        def record(i):
            threads.add(threading.current_thread())
            time.sleep(0.001)
            return -i

        with WorkerPool(10) as pool:
            assert pool.workers == 3
            for start in range(0, 40, 8):
                assert list(pool.map(record, range(start, start + 8))) == [
                    -i for i in range(start, start + 8)
                ]
        assert len(threads) <= 3
        assert all(t.name.startswith("mrcal-worker") and not t.is_alive() for t in threads)
        assert threading.active_count() == before
        monkeypatch.setenv("MRCAL_THREADS", "8")
        with WorkerPool(2) as pool:
            assert pool.workers == 2  # never more workers than tasks

    def test_consumer_that_stops_early_joins_workers(self, monkeypatch):
        """A map left open at the `with` exit has its queued calls cancelled
        and the workers joined, with no close() of the generator."""
        monkeypatch.setenv("MRCAL_THREADS", "4")
        before = threading.active_count()
        started = []

        def record(i):
            started.append(i)
            time.sleep(0.5 if i else 0)
            return i

        with WorkerPool(100) as pool:
            results = pool.map(record, range(100))
            assert next(results) == 0
            assert threading.active_count() > before
        assert threading.active_count() == before
        # 2 x 4 calls were submitted; those queued behind the first round never ran
        assert max(started) <= pool.workers


def test_load_dataset_bad_json(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text("{not json")
    with pytest.raises(ManifestParseError):
        load_dataset(path)


def test_rater_stack_rejects_malformed_arrays():
    with pytest.raises(ValueError, match=r"\(2, 2\)"):
        RaterStack(np.zeros((2, 2), dtype=np.uint8))
    with pytest.raises(ValueError, match=r"\(0, 2, 2\)"):
        RaterStack(np.zeros((0, 2, 2), dtype=np.uint8))
    arr = np.zeros((3, 2, 2), dtype=np.uint8)
    arr[1, 0, 1] = 2
    with pytest.raises(ValueError, match="0 or 1"):
        RaterStack(arr)


@pytest.mark.parametrize("bad", [0.5, 1.7, -1.0, np.nan, np.uint8(2)])
def test_rater_stack_checks_values_before_the_uint8_cast(bad):
    # the cast would read 0.5 as 0, 1.7 as 1 and -1.0 as 255
    arr = np.zeros((2, 3, 3), dtype=np.asarray(bad).dtype)
    arr[1, 2, 0] = bad
    with pytest.raises(ValueError, match="0 or 1"):
        RaterStack(arr)


@pytest.mark.parametrize("dtype", [np.bool_, np.uint8, np.float64])
def test_rater_stack_accepts_binary_values_of_any_dtype(dtype):
    arr = np.zeros((2, 3, 3), dtype=dtype)
    arr[0, 1, :] = 1
    stack = RaterStack(arr)
    assert stack.as_array().dtype == np.uint8
    np.testing.assert_array_equal(stack.as_array(), arr)


def test_rater_stack_is_one_read_only_array():
    arr = np.array([[[1, 0, 0]], [[1, 1, 0]], [[0, 0, 0]], [[0, 1, 1]]], dtype=np.uint8)
    stack = RaterStack(arr)
    arr[0, 0, 0] = 0  # the stack keeps its own copy
    assert stack.num_raters == 4 and stack.shape == (1, 3)
    assert stack.as_array() is stack.as_array()
    assert not stack.as_array().flags.writeable
    np.testing.assert_array_equal(stack.votes(), [[2, 2, 1]])
    assert stack.votes().dtype == np.int64
    np.testing.assert_array_equal(stack.majority(), [[True, True, False]])


@pytest.mark.parametrize(
    "dtype, values, accepted",
    [
        (DTYPE_U8, [[0, 1], [1, 0]], True),
        (DTYPE_U8, [[0, 1], [2, 0]], False),
        (DTYPE_F32, [[0.0, 1.0], [1.0, 0.0]], True),
        (DTYPE_F32, [[0.0, 1.0], [0.5, 0.0]], False),
        (DTYPE_F32, [[0.0, 1.0], [2.0, 0.0]], False),
    ],
)
def test_read_mask_value_check(tmp_path, dtype, values, accepted):
    # a mask's values are checked as stored: the uint8 cast would turn 0.5 into 0
    path = _write_dataset(tmp_path, n=1)
    mask_path = tmp_path / "s0_r1.mrc"
    values = np.tile(values, (2, 2))
    write_container(dtype, values.shape, values, mask_path)
    if accepted:
        masks = load_dataset(path)["train"][0].annotations.as_array()
        assert masks.dtype == np.uint8
        np.testing.assert_array_equal(masks[1], values)
    else:
        with pytest.raises(CorruptFile, match="0 or 1") as exc:
            load_dataset(path)
        assert str(mask_path) in str(exc.value)


@pytest.mark.parametrize("num_raters", [0, 3.9, True, "3"])
def test_manifest_without_raters_rejected(tmp_path, num_raters):
    # only a JSON integer >= 1 is a rater count: int() would read 3.9 as 3 and true as 1
    path = _write_dataset(tmp_path, num_raters=0)
    doc = json.loads(path.read_text())
    doc["num_raters"] = num_raters
    path.write_text(json.dumps(doc))
    with pytest.raises(ManifestParseError, match="num_raters") as exc:
        parse_manifest(path)
    assert str(path) in str(exc.value)
    with pytest.raises(ManifestParseError):
        load_dataset(path)


@pytest.mark.parametrize(
    "second_id, reason",
    [
        ("s0", "listed twice"),
        ("", "single path component"),
        (".", "single path component"),
        ("..", "single path component"),
        ("../../escaped", "single path component"),
        ("a/b", "single path component"),
        ("s1/", "single path component"),
        ("s\0", "single path component"),  # no file name holds a NUL byte
    ],
)
def test_manifest_sample_id_rejected(tmp_path, second_id, reason):
    # ids name fuse's output files, so each is unique and one path component
    path = _write_dataset(tmp_path)
    doc = json.loads(path.read_text())
    doc["samples"][1]["id"] = second_id
    path.write_text(json.dumps(doc))
    with pytest.raises(ManifestParseError, match=reason) as exc:
        parse_manifest(path)
    assert str(path) in str(exc.value) and repr(second_id) in str(exc.value)
    with pytest.raises(ManifestParseError):
        load_dataset(path)


@pytest.mark.parametrize("dtype, dims, error, message", [
    (7, (2,), UnsupportedDtype, "dtype code 7"),
    (DTYPE_U8, (), ContainerError, "ndim must be 1-3, got 0"),
    (DTYPE_U8, (1, 1, 1, 1), ContainerError, "ndim must be 1-3, got 4"),
    (DTYPE_U8, (2, 0), ContainerError, "dims must be >= 1"),
    # 2^33 elements: rejected before the payload is converted or anything allocated
    (DTYPE_F32, (2**16, 2**16, 2), DimOverflow, "exceeds 2\\^32"),
])
def test_write_container_rejects_bad_header(tmp_path, dtype, dims, error, message):
    path = tmp_path / "a.mrc"
    with pytest.raises(error, match=message):
        write_container(dtype, dims, [], path)
    assert not path.exists()


def test_write_together_error_names_the_target_when_no_temporary_is_made(tmp_path):
    """A 250-byte name is a valid target, but its temporary's name is too
    long: the write fails before the temporary exists, and its cleanup
    keeps the write's error, which names the target."""
    target = tmp_path / ("a" * 250)
    with pytest.raises(OSError) as info:
        write_together({target: lambda tmp: tmp.write_text("x")})
    assert info.value.errno == errno.ENAMETOOLONG
    assert info.value.filename == str(target)
    assert list(tmp_path.iterdir()) == []


def test_dims_whose_product_overflows_int64_rejected(tmp_path):
    # 2^31 * 2^31 * 4 wraps to 0 in int64 arithmetic
    path = tmp_path / "big.mrc"
    path.write_bytes(b"MRC1" + struct.pack("<BBH3I", DTYPE_U8, 3, 0, 2**31, 2**31, 4))
    with pytest.raises(ContainerError, match="exceeds"):
        read_container(path)


def _valid_container_bytes(tmp_path, dtype, dims):
    path = tmp_path / "valid.mrc"
    write_container(dtype, dims, np.arange(int(np.prod(dims))) % 2, path)
    return path.read_bytes()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_fuzzed_container_raises_only_container_error(tmp_path_factory, data):
    dtype = data.draw(st.sampled_from((DTYPE_U8, DTYPE_F32)))
    dims = tuple(data.draw(st.lists(st.integers(1, 5), min_size=1, max_size=3)))
    root = tmp_path_factory.mktemp("fuzz")
    raw = bytearray(_valid_container_bytes(root, dtype, dims))
    edit = data.draw(st.sampled_from(("flip", "header", "truncate", "append")))
    if edit == "flip":
        for _ in range(data.draw(st.integers(1, 4))):
            raw[data.draw(st.integers(0, len(raw) - 1))] = data.draw(st.integers(0, 255))
    elif edit == "header":
        at = data.draw(st.integers(4, 8 + 4 * len(dims) - 1))
        raw[at : at + 4] = data.draw(st.binary(min_size=4, max_size=4))
    elif edit == "truncate":
        del raw[data.draw(st.integers(0, len(raw) - 1)) :]
    else:
        raw += data.draw(st.binary(min_size=1, max_size=8))
    path = root / "fuzzed.mrc"
    path.write_bytes(bytes(raw))
    try:
        read_container(path)
    except ContainerError:
        pass
