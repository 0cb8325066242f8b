"""Dense 2D array containers, mask types, dataset manifests, and the MRC1 and JSON formats.

The MRC1 container is a tiny little-endian binary layout used for every array
this package writes to disk:

    bytes 0-3   ASCII magic "MRC1"
    byte  4     dtype code: 0 = u8, 1 = f32 (IEEE-754 little-endian)
    byte  5     ndim (1-3)
    bytes 6-7   reserved, zero
    then        ndim x u32 little-endian dims, slowest-varying first
    then        row-major payload

u8 images are rescaled by value/255 when loaded (never reinterpreted
bitwise).

A RaterStack is one image's K rater masks as one read-only (K, H, W) uint8 array;
its `votes` and `majority` are the package's only vote count and majority rule.

`WorkerPool` is the package's one worker pool, on `thread_cap()` threads
(MRCAL_THREADS): `predict`, `generate` and `train` each open one and iterate
its `map` over inference images (each run band by band inline by its task),
synthetic samples or mini-batches' samples. Every result comes back in item
order, so no output depends on the thread count; leaving the `with` block
cancels the calls not yet started and joins the workers.
"""

from __future__ import annotations

import errno
import json
import math
import os
import struct
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar

import numpy as np

MAGIC = b"MRC1"
DTYPE_U8 = 0
DTYPE_F32 = 1

_NUMPY_DTYPES = {DTYPE_U8: np.dtype("<u1"), DTYPE_F32: np.dtype("<f4")}
_MAX_ELEMENTS = 2 ** 32
CLAMP_TOL = 1e-6  # `ForegroundProbMap` clamps float error this far outside [0,1]

# BLAS libraries size their own thread pools from these, in this order; with
# none set they use every CPU
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")


def _blas_threads(cpus: int) -> int:
    for var in BLAS_THREAD_VARS:
        try:
            n = int(os.environ[var])
        except (KeyError, ValueError):
            continue
        if n > 0:
            return n
    return cpus


def thread_cap() -> int:
    """Worker threads of every `WorkerPool` (whole inference images, synth
    samples, training samples): MRCAL_THREADS, where 0 or unset means the
    CPUs this process may run on divided by the BLAS thread count, at least
    1. The tasks run their GEMMs on BLAS's threads, so with BLAS unpinned
    this is one worker; pool workers on top of a multi-threaded BLAS measured
    slower than one. Raises ValueError naming the variable and its value when
    it is not a non-negative integer."""
    raw = os.environ.get("MRCAL_THREADS", "0")
    try:
        cap = int(raw)
    except ValueError:
        cap = -1
    if cap < 0:
        raise ValueError(f"MRCAL_THREADS must be a non-negative integer, got {raw!r}")
    if cap:
        return cap
    affinity = getattr(os, "sched_getaffinity", None)  # not on macOS or Windows
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    return max(1, cpus // _blas_threads(cpus))


class WorkerPool:
    """Up to `thread_cap()` worker threads, never more than `max_tasks`,
    that stay open from `with` to its end; with one worker, `map` runs every
    call inline on the calling thread and no thread is started.

    Leaving the `with` block, also by an exception, cancels every `map`'s
    calls not yet started and joins the workers (named `mrcal-worker_<n>`)
    once the running ones have returned: a consumer may stop at any point.
    """

    def __init__(self, max_tasks: int):
        self.workers = max(1, min(thread_cap(), max_tasks))
        self._executor = None
        if self.workers > 1:
            # imported here: commands that never run a pool skip its import cost
            from concurrent.futures import ThreadPoolExecutor

            self._executor = ThreadPoolExecutor(self.workers, thread_name_prefix="mrcal-worker")

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        if self._executor is not None:
            self._executor.shutdown(cancel_futures=True)

    def map(self, fn, items):
        """Yield fn(item) for each item, in item order.

        At most 2 x workers calls are submitted and not yet yielded, so only
        a few results are held at a time. Each item is held only until its
        call returns, so when the caller keeps no other reference, an item is
        freed once it has been processed. If a call raises, the calls not yet
        started are cancelled and the exception raised is that of the first
        failing item in item order.
        """
        items = deque(items)
        if self._executor is None:
            while items:
                yield fn(items.popleft())
            return
        pending = deque()
        try:
            while items:
                if len(pending) == 2 * self.workers:
                    yield pending.popleft().result()
                pending.append(self._executor.submit(fn, items.popleft()))
            while pending:
                yield pending.popleft().result()
        finally:
            for future in pending:
                future.cancel()


def json_text(obj) -> str:
    """The one artifact JSON format: 2-space indent, sorted keys, final newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


class ContainerError(Exception):
    """Base class for MRC1 container failures."""


class BadMagic(ContainerError):
    pass


class UnsupportedDtype(ContainerError):
    pass


class TruncatedPayload(ContainerError):
    pass


class DimOverflow(ContainerError):
    pass


class NonFiniteValues(ValueError):
    """A probability map holds NaN or infinite values."""


class DatasetError(Exception):
    """Base class for manifest / dataset loading failures."""


class ManifestParseError(DatasetError):
    pass


class MissingFile(DatasetError):
    pass


class DimensionMismatch(DatasetError):
    pass


class RaterCountMismatch(DatasetError):
    pass


class CorruptFile(DatasetError):
    """A dataset file exists but is not a valid MRC1 container of the right shape."""


class UnreadableFile(DatasetError):
    """A dataset file exists but cannot be read (a directory, no permission)."""


def _freeze(arr, dtype=None) -> np.ndarray:
    """The package's one freeze: a read-only C-contiguous copy of `arr`, cast
    to `dtype` unless that is None."""
    out = np.array(arr, dtype=dtype, order="C")
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Grid2D:
    """A dense 2D array with positive dims, stored as one read-only
    C-contiguous copy in the class's `dtype` (None keeps the caller's).

    A subclass checks its values on the caller's array, then calls
    `super().__post_init__()`, which checks the shape and makes the copy.
    """

    data: np.ndarray
    dtype: ClassVar = np.float64

    def __post_init__(self):
        shape = np.shape(self.data)
        if len(shape) != 2:
            raise ValueError(f"{type(self).__name__} requires a 2D array, got ndim={len(shape)}")
        if 0 in shape:
            raise ValueError(f"{type(self).__name__} dims must be positive, got {shape}")
        object.__setattr__(self, "data", _freeze(self.data, self.dtype))

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape


def _all_binary(vals: np.ndarray) -> bool:
    """Whether every value is 0 or 1: free for bool, one max() pass for uint8."""
    if vals.dtype == np.bool_:
        return True
    if vals.dtype == np.uint8:
        return bool(vals.max() <= 1)
    return bool(np.isin(vals, (0, 1)).all())


@dataclass(frozen=True)
class BinaryMask(Grid2D):
    """A {0,1}-valued Grid2D, stored as uint8. The values are checked before
    the cast, which would turn e.g. 0.5 into 0."""

    dtype: ClassVar = np.uint8

    def __post_init__(self):
        if not _all_binary(np.asarray(self.data)):
            raise ValueError("BinaryMask values must all be 0 or 1")
        super().__post_init__()


def majority_level(num_raters: int) -> int:
    """Smallest vote count that is a majority of K raters; even-K ties count."""
    return (num_raters + 1) // 2


@dataclass(frozen=True)
class RaterStack:
    """K binary masks for one image: one read-only (K, H, W) uint8 array. The
    values are checked before the cast, as in `BinaryMask`."""

    masks: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.masks)
        if arr.ndim != 3 or arr.size == 0:
            raise ValueError(f"RaterStack requires a nonempty (K, H, W) array, got {arr.shape}")
        if not _all_binary(arr):
            raise ValueError("RaterStack values must all be 0 or 1")
        object.__setattr__(self, "masks", _freeze(arr, np.uint8))

    @property
    def num_raters(self) -> int:
        return self.masks.shape[0]

    @property
    def shape(self) -> tuple[int, int]:
        return self.masks.shape[1:]

    def as_array(self) -> np.ndarray:
        """The stored (K, H, W) uint8 array (read-only, not a copy)."""
        return self.masks

    def votes(self) -> np.ndarray:
        """Per-voxel count of foreground votes, int64 (H, W)."""
        return self.masks.sum(axis=0, dtype=np.int64)

    def majority(self) -> np.ndarray:
        """Per-voxel majority vote, ties to foreground, bool (H, W)."""
        return self.votes() >= majority_level(self.num_raters)


def _finite_range(vals: np.ndarray) -> tuple[float, float]:
    """(min, max) of a probability array; NonFiniteValues if any value is NaN or inf."""
    lo, hi = vals.min(), vals.max()  # a NaN anywhere makes both NaN
    if not (np.isfinite(lo) and np.isfinite(hi)):
        bad = int(np.count_nonzero(~np.isfinite(vals)))
        raise NonFiniteValues(f"{bad} of {vals.size} probabilities are NaN or infinite")
    return lo, hi


@dataclass(frozen=True)
class ForegroundProbMap(Grid2D):
    """Per-voxel foreground probabilities in [0,1], stored as float64.

    NaN or inf raises NonFiniteValues, a value more than CLAMP_TOL outside
    [0,1] raises ValueError, and smaller excursions are clamped.
    """

    def __post_init__(self):
        vals = np.asarray(self.data)
        lo, hi = _finite_range(vals)
        if lo < -CLAMP_TOL or hi > 1.0 + CLAMP_TOL:
            raise ValueError(
                f"probabilities outside [-{CLAMP_TOL}, 1+{CLAMP_TOL}]: "
                f"min={lo}, max={hi}"
            )
        if lo < 0.0 or hi > 1.0:
            object.__setattr__(self, "data", np.clip(vals, 0.0, 1.0))
        super().__post_init__()


@dataclass(frozen=True)
class Sample:
    """One image with its K rater annotations."""

    id: str
    image: Grid2D
    annotations: RaterStack

    def __post_init__(self):
        if self.image.shape != self.annotations.shape:
            raise DimensionMismatch(
                f"sample {self.id!r}: image {self.image.shape} vs "
                f"annotations {self.annotations.shape}"
            )


SPLITS = ("train", "val", "test")


@dataclass
class ManifestEntry:
    id: str
    image_path: str
    rater_paths: list[str]
    split: str


@dataclass
class DatasetManifest:
    version: str
    num_raters: int
    samples: list[ManifestEntry] = field(default_factory=list)


def write_container(dtype: int, dims, payload, path) -> None:
    """Write an array to disk in MRC1 layout (see module docstring)."""
    if dtype not in _NUMPY_DTYPES:
        raise UnsupportedDtype(f"dtype code {dtype}")
    dims = tuple(int(d) for d in dims)
    if not 1 <= len(dims) <= 3:
        raise ContainerError(f"ndim must be 1-3, got {len(dims)}")
    if any(d < 1 for d in dims):
        raise ContainerError(f"all dims must be >= 1, got {dims}")
    n = math.prod(dims)
    if n > _MAX_ELEMENTS:
        raise DimOverflow(f"{n} elements exceeds 2^32")
    arr = np.ascontiguousarray(np.asarray(payload), dtype=_NUMPY_DTYPES[dtype]).reshape(dims)
    header = MAGIC + struct.pack("<BBH", dtype, len(dims), 0)
    header += struct.pack(f"<{len(dims)}I", *dims)
    Path(path).write_bytes(header + arr.tobytes())


def write_together(writers) -> None:
    """Write several files so that either all of them or none change.

    `writers` maps each target path to a function that writes a given path.
    Each one writes a temporary file beside its target; only when every
    write has succeeded and no target is a directory (a symlink is replaced
    itself) are the temporaries renamed over their targets; otherwise the
    OSError names the target, and every target stays as it was, with no
    temporary left. A rename that fails after an earlier one (e.g. EPERM or
    EBUSY), or a crash between them, leaves the earlier targets replaced.
    The targets must be distinct files, or two would share one temporary.
    """
    staged = {Path(p): (Path(p).with_name(f".{Path(p).name}.{os.getpid()}.tmp"), write)
              for p, write in writers.items()}
    try:
        for path, (tmp, write) in staged.items():
            try:
                write(tmp)
            except OSError as exc:
                if exc.filename is not None:
                    exc.filename = str(path)  # name the target, not its temporary
                raise
        for path in staged:
            if path.is_dir() and not path.is_symlink():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        for path, (tmp, _) in staged.items():
            os.replace(tmp, path)
    finally:
        for tmp, _ in staged.values():
            try:
                tmp.unlink(missing_ok=True)
            except OSError:  # never made (e.g. its parent is a file): keep the first error
                pass


def read_container(path):
    """Read an MRC1 file, returning (dtype_code, dims, array)."""
    raw = Path(path).read_bytes()
    if len(raw) < 8 or raw[:4] != MAGIC:
        raise BadMagic(f"{path}: missing MRC1 magic")
    dtype, ndim, _reserved = struct.unpack("<BBH", raw[4:8])
    if dtype not in _NUMPY_DTYPES:
        raise UnsupportedDtype(f"{path}: dtype code {dtype}")
    if not 1 <= ndim <= 3:
        raise ContainerError(f"{path}: ndim {ndim} out of range")
    dim_end = 8 + 4 * ndim
    if len(raw) < dim_end:
        raise TruncatedPayload(f"{path}: header cut short")
    dims = struct.unpack(f"<{ndim}I", raw[8:dim_end])
    n = math.prod(dims)  # Python ints: three u32 dims can overflow int64
    if n > _MAX_ELEMENTS:
        raise DimOverflow(f"{path}: {n} elements exceeds 2^32")
    np_dtype = _NUMPY_DTYPES[dtype]
    expected = dim_end + n * np_dtype.itemsize
    if len(raw) < expected:
        raise TruncatedPayload(
            f"{path}: expected {expected} bytes, file has {len(raw)}"
        )
    if len(raw) > expected:
        raise ContainerError(
            f"{path}: expected {expected} bytes, file has {len(raw)} "
            f"({len(raw) - expected} trailing)"
        )
    arr = np.frombuffer(raw[dim_end:], dtype=np_dtype).reshape(dims)
    return dtype, dims, arr


def _image_grid(dtype: int, arr: np.ndarray) -> Grid2D:
    """The float64 image of a stored payload; u8 is rescaled by value/255."""
    return Grid2D(arr / 255.0 if dtype == DTYPE_U8 else arr)


def parse_manifest(manifest_path) -> DatasetManifest:
    """Parse and check a manifest. Sample ids name `fuse`'s output files
    (`<id>_<method>.mrc`), so each must be unique and one path component."""
    manifest_path = Path(manifest_path)
    try:
        doc = json.loads(manifest_path.read_text())
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or not JSON
        raise ManifestParseError(f"{manifest_path}: {exc}") from exc
    try:
        manifest = DatasetManifest(
            version=str(doc["version"]),
            num_raters=doc["num_raters"],
            samples=[
                ManifestEntry(
                    id=str(s["id"]),
                    image_path=str(s["image_path"]),
                    rater_paths=[str(p) for p in s["rater_paths"]],
                    split=str(s["split"]),
                )
                for s in doc["samples"]
            ],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ManifestParseError(f"{manifest_path}: malformed manifest: {exc}") from exc
    if type(manifest.num_raters) is not int or manifest.num_raters < 1:  # bool is an int
        raise ManifestParseError(
            f"{manifest_path}: num_raters must be an integer >= 1, got {manifest.num_raters!r}"
        )
    seen = set()
    for entry in manifest.samples:
        if entry.id in seen or entry.id in ("", ".", "..") or {"/", os.sep, "\0"} & set(entry.id):
            why = "is listed twice" if entry.id in seen else "is not a single path component"
            raise ManifestParseError(f"{manifest_path}: sample id {entry.id!r} {why}")
        seen.add(entry.id)
        if entry.split not in SPLITS:
            raise ManifestParseError(
                f"{manifest_path}: sample {entry.id!r} has unknown split {entry.split!r}"
            )
    return manifest


# errnos for which a dataset file counts as absent, as for `Path.exists()`
_ABSENT_ERRNOS = (errno.ENOENT, errno.ENOTDIR, errno.ELOOP)


def _read_dataset_file(path, kind: str):
    """The dtype code and 2D payload, as stored, of one dataset file.

    Each failure is a DatasetError naming the file: MissingFile when it is
    absent (also through a NUL byte in the path, or a regular file part-way
    along it), UnreadableFile when it cannot be read (a directory, no
    permission), CorruptFile when it is not an MRC1 container of a 2D array
    with positive dims.
    """
    try:
        dtype, dims, arr = read_container(path)
    except ValueError as exc:  # open() rejects a NUL byte or an unencodable path
        raise MissingFile(str(path)) from exc
    except ContainerError as exc:
        raise CorruptFile(str(exc)) from exc
    except OSError as exc:
        if exc.errno in _ABSENT_ERRNOS:
            raise MissingFile(str(path)) from exc
        raise UnreadableFile(f"{path}: {exc.strerror or exc}") from exc
    if len(dims) != 2:
        raise CorruptFile(f"{path}: {kind} must be 2D, got ndim={len(dims)}")
    if 0 in dims:
        raise CorruptFile(f"{path}: {kind} dims must be positive, got {dims}")
    return dtype, arr


def load_dataset(manifest_path, splits=SPLITS) -> dict[str, list[Sample]]:
    """Load the samples of the given splits referenced by a manifest, grouped by split.

    Paths in the manifest are relative to the manifest's directory. Every
    file of every split is read and validated in manifest order, so the
    first bad file raises the same DatasetError whatever `splits` is; only
    the samples of `splits` are kept (and only their images converted to
    float64), and the other splits' lists are empty.
    """
    manifest_path = Path(manifest_path)
    manifest = parse_manifest(manifest_path)
    root = manifest_path.parent
    out: dict[str, list[Sample]] = {split: [] for split in SPLITS}
    for entry in manifest.samples:
        if len(entry.rater_paths) != manifest.num_raters:
            raise RaterCountMismatch(
                f"sample {entry.id!r} lists {len(entry.rater_paths)} rater paths, "
                f"manifest declares K={manifest.num_raters}"
            )
        dtype, pixels = _read_dataset_file(root / entry.image_path, "image")
        masks = np.empty((manifest.num_raters, *pixels.shape), dtype=np.uint8)
        for r, rp in enumerate(entry.rater_paths):
            rater_file = root / rp
            _, mask = _read_dataset_file(rater_file, "mask")
            # checked before the uint8 cast below, which would hide e.g. 0.5
            if not _all_binary(mask):
                raise CorruptFile(f"{rater_file}: mask values must all be 0 or 1")
            if mask.shape != pixels.shape:
                raise DimensionMismatch(
                    f"sample {entry.id!r}: image {pixels.shape} vs rater mask "
                    f"{mask.shape} ({rp})"
                )
            masks[r] = mask
        if entry.split in splits:
            image = _image_grid(dtype, pixels)  # dropped splits skip the float64 copy
            out[entry.split].append(Sample(id=entry.id, image=image, annotations=RaterStack(masks)))
    return out
