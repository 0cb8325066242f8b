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
    load_dataset,
    ordered_map,
    parse_manifest,
    read_container,
    read_mask,
    write_container,
)


def test_u8_header_decode(tmp_path):
    path = tmp_path / "a.mrc"
    write_container(DTYPE_U8, (2, 2), [0, 1, 1, 0], path)
    dtype, dims, arr = read_container(path)
    assert dtype == DTYPE_U8
    assert dims == (2, 2)
    np.testing.assert_array_equal(arr, [[0, 1], [1, 0]])
    mask = BinaryMask.from_array(arr)
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
    g = Grid2D(np.zeros((2, 3)))
    assert (g.height, g.width) == (2, 3)
    with pytest.raises(ValueError):
        g.data[0, 0] = 1.0  # immutable


def test_binary_mask_rejects_other_values():
    with pytest.raises(ValueError):
        BinaryMask(Grid2D(np.array([[0, 2]])))


def test_prob_map_bounds():
    with pytest.raises(ValueError):
        ForegroundProbMap.from_array(np.array([[0.5, 1.5]]))
    # tiny excursions clamp
    pm = ForegroundProbMap.from_array(np.array([[1.0 + 5e-7]]))
    assert pm.data[0, 0] == 1.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_prob_map_rejects_non_finite(bad):
    arr = np.array([[0.5, bad], [0.2, 0.7]])
    with pytest.raises(NonFiniteValues, match="1 of 4"):
        ForegroundProbMap.from_array(arr)
    with pytest.raises(NonFiniteValues):
        ForegroundProbMap(Grid2D(arr))


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
    def test_results_come_back_in_item_order(self, monkeypatch):
        monkeypatch.setenv("MRCAL_THREADS", "4")

        def square(i):
            time.sleep(0.001 * (i % 5))  # later items often finish first
            return i * i

        assert list(ordered_map(square, range(30))) == [i * i for i in range(30)]

    @pytest.mark.parametrize("threads, n", [("1", 6), ("4", 1)])
    def test_runs_inline_on_the_calling_thread(self, monkeypatch, threads, n):
        monkeypatch.setenv("MRCAL_THREADS", threads)
        before = threading.active_count()
        seen = []

        def record(i):
            seen.append((threading.get_ident(), threading.active_count()))
            return i

        assert list(ordered_map(record, range(n))) == list(range(n))
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
        for i in ordered_map(record, range(40)):
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
        with pytest.raises(ValueError, match="item 9"):
            for result in ordered_map(work, range(100)):
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

        with pytest.raises(ValueError, match="item 0"):
            list(ordered_map(work, range(10)))
        assert {0, 1} <= started <= {0, 1, 2}

    def test_consumer_that_stops_early_joins_workers(self, monkeypatch):
        monkeypatch.setenv("MRCAL_THREADS", "4")
        before = threading.active_count()
        results = ordered_map(lambda i: i, range(100))
        assert next(results) == 0
        assert threading.active_count() > before
        results.close()
        assert threading.active_count() == before


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
    path = tmp_path / "m.mrc"
    write_container(dtype, (2, 2), np.array(values), path)
    if accepted:
        mask = read_mask(path)
        assert mask.data.dtype == np.uint8
        np.testing.assert_array_equal(mask.data, values)
    else:
        with pytest.raises(ContainerError, match="0 or 1") as exc:
            read_mask(path)
        assert str(path) in str(exc.value)


def test_manifest_without_raters_rejected(tmp_path):
    path = _write_dataset(tmp_path, num_raters=0)
    with pytest.raises(ManifestParseError, match="num_raters") as exc:
        parse_manifest(path)
    assert str(path) in str(exc.value)
    with pytest.raises(ManifestParseError):
        load_dataset(path)


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
