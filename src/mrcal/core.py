"""Dense 2D array containers, mask types, dataset manifests and the MRC1 on-disk format.

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

`ordered_map` is the package's one worker pool: inference bands and synthetic
samples run through it on `thread_cap()` threads (MRCAL_THREADS), and every
result comes back in item order, so no output depends on the thread count.
"""

from __future__ import annotations

import json
import math
import os
import struct
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

MAGIC = b"MRC1"
DTYPE_U8 = 0
DTYPE_F32 = 1

_NUMPY_DTYPES = {DTYPE_U8: np.dtype("<u1"), DTYPE_F32: np.dtype("<f4")}
_MAX_ELEMENTS = 2 ** 32

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
    """Worker threads of `ordered_map`: MRCAL_THREADS, where 0 or unset
    means the CPUs this process may run on divided by the BLAS thread count,
    at least 1. Inference bands run their GEMMs on BLAS's threads, so with
    BLAS unpinned this is one worker; band workers on top of a multi-threaded
    BLAS measured slower than one. Raises ValueError naming the variable and
    its value when it is not a non-negative integer."""
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


def ordered_map(fn, items):
    """Yield fn(item) for each item, in item order.

    Every call runs inline on the calling thread when `thread_cap()` is 1 or
    there is one item. Otherwise the calls run on a pool of up to
    `thread_cap()` threads opened for this call, with at most 2 x workers of
    them submitted and not yet yielded, so only a few results are held at a
    time. If a call raises, or the consumer stops early, the calls not yet
    started are cancelled and the workers joined before the generator
    finishes; the exception raised is that of the first failing item in item
    order. A consumer that may stop early closes the generator
    (`contextlib.closing`), so that no worker outlives its loop.
    """
    items = list(items)
    workers = min(thread_cap(), len(items))
    if workers <= 1:
        for item in items:
            yield fn(item)
        return
    # imported here: commands that never run a pool skip its import cost
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(workers, thread_name_prefix="mrcal-worker") as pool:
        pending = deque()
        try:
            for item in items:
                if len(pending) == 2 * workers:
                    yield pending.popleft().result()
                pending.append(pool.submit(fn, item))
            while pending:
                yield pending.popleft().result()
        finally:
            for future in pending:
                future.cancel()


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


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr)
    if out is arr:
        out = arr.copy()
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Grid2D:
    """A dense row-major 2D array. Immutable after construction."""

    data: np.ndarray

    def __post_init__(self):
        if self.data.ndim != 2:
            raise ValueError(f"Grid2D requires a 2D array, got ndim={self.data.ndim}")
        if self.data.shape[0] < 1 or self.data.shape[1] < 1:
            raise ValueError(f"Grid2D dims must be positive, got {self.data.shape}")
        object.__setattr__(self, "data", _freeze(self.data))

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape


def _all_binary(vals: np.ndarray) -> bool:
    """Whether every value is 0 or 1: one max() pass for uint8."""
    if vals.dtype == np.uint8:
        return bool(vals.max() <= 1)
    return bool(np.isin(vals, (0, 1)).all())


@dataclass(frozen=True)
class BinaryMask:
    """A {0,1}-valued Grid2D."""

    grid: Grid2D

    def __post_init__(self):
        if not _all_binary(self.grid.data):
            raise ValueError("BinaryMask values must all be 0 or 1")

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "BinaryMask":
        return cls(Grid2D(np.asarray(arr, dtype=np.uint8)))

    @property
    def data(self) -> np.ndarray:
        return self.grid.data

    @property
    def shape(self) -> tuple[int, int]:
        return self.grid.shape


def majority_level(num_raters: int) -> int:
    """Smallest vote count that is a majority of K raters; even-K ties count."""
    return (num_raters + 1) // 2


@dataclass(frozen=True)
class RaterStack:
    """K binary masks for one image: one read-only (K, H, W) uint8 array."""

    masks: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.masks, dtype=np.uint8)
        if arr.ndim != 3 or arr.size == 0:
            raise ValueError(f"RaterStack requires a nonempty (K, H, W) array, got {arr.shape}")
        if arr.max() > 1:
            raise ValueError("RaterStack values must all be 0 or 1")
        object.__setattr__(self, "masks", _freeze(arr))

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
class ForegroundProbMap:
    """Per-voxel foreground probabilities in [0,1]."""

    grid: Grid2D

    def __post_init__(self):
        lo, hi = _finite_range(self.grid.data)
        if lo < 0.0 or hi > 1.0:
            raise ValueError("ForegroundProbMap values must lie in [0,1]")

    @classmethod
    def from_array(cls, arr: np.ndarray, clamp_tol: float = 1e-6) -> "ForegroundProbMap":
        """Build from floats; excursions up to clamp_tol outside [0,1] are clamped."""
        arr = np.asarray(arr, dtype=np.float64)
        lo, hi = _finite_range(arr)
        if lo < -clamp_tol or hi > 1.0 + clamp_tol:
            raise ValueError(
                f"probabilities outside [-{clamp_tol}, 1+{clamp_tol}]: "
                f"min={lo}, max={hi}"
            )
        return cls(Grid2D(np.clip(arr, 0.0, 1.0)))

    @property
    def data(self) -> np.ndarray:
        return self.grid.data

    @property
    def shape(self) -> tuple[int, int]:
        return self.grid.shape


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
    write has succeeded are the temporaries renamed over their targets. A
    failed write leaves no partial or temporary file behind and every
    earlier target as it was.
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
        for path, (tmp, _) in staged.items():
            os.replace(tmp, path)
    finally:
        for tmp, _ in staged.values():
            tmp.unlink(missing_ok=True)


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


def read_mask(path) -> BinaryMask:
    dtype, dims, arr = read_container(path)
    if len(dims) != 2:
        raise ContainerError(f"{path}: mask must be 2D, got ndim={len(dims)}")
    # a float payload is checked before the uint8 cast could hide e.g. 0.5
    if dtype != DTYPE_U8 and not _all_binary(arr):
        raise ContainerError(f"{path}: mask values must all be 0 or 1")
    try:
        return BinaryMask.from_array(arr)
    except ValueError as exc:
        raise ContainerError(f"{path}: {exc}") from exc


def _read_image_payload(path):
    """An image file's dtype code and its 2D payload as stored, validated
    but not converted."""
    dtype, dims, arr = read_container(path)
    if len(dims) != 2:
        raise ContainerError(f"{path}: image must be 2D, got ndim={len(dims)}")
    if 0 in dims:
        raise ContainerError(f"{path}: image dims must be positive, got {dims}")
    return dtype, arr


def _image_grid(dtype: int, arr: np.ndarray) -> Grid2D:
    """The float64 image of a stored payload; u8 is rescaled by value/255."""
    if dtype == DTYPE_U8:
        return Grid2D(arr.astype(np.float64) / 255.0)
    return Grid2D(arr.astype(np.float64))


def parse_manifest(manifest_path) -> DatasetManifest:
    manifest_path = Path(manifest_path)
    try:
        doc = json.loads(manifest_path.read_text())
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or not JSON
        raise ManifestParseError(f"{manifest_path}: {exc}") from exc
    try:
        manifest = DatasetManifest(
            version=str(doc["version"]),
            num_raters=int(doc["num_raters"]),
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
    if manifest.num_raters < 1:
        raise ManifestParseError(
            f"{manifest_path}: num_raters must be >= 1, got {manifest.num_raters}"
        )
    for entry in manifest.samples:
        if entry.split not in SPLITS:
            raise ManifestParseError(
                f"{manifest_path}: sample {entry.id!r} has unknown split {entry.split!r}"
            )
    return manifest


def _read_dataset_file(reader, path):
    try:
        return reader(path)
    except ContainerError as exc:
        raise CorruptFile(str(exc)) from exc
    except OSError as exc:
        raise UnreadableFile(f"{path}: {exc.strerror or exc}") from exc


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
        image_file = root / entry.image_path
        if not image_file.exists():
            raise MissingFile(str(image_file))
        dtype, pixels = _read_dataset_file(_read_image_payload, image_file)
        masks = np.empty((manifest.num_raters, *pixels.shape), dtype=np.uint8)
        for r, rp in enumerate(entry.rater_paths):
            rater_file = root / rp
            if not rater_file.exists():
                raise MissingFile(str(rater_file))
            mask = _read_dataset_file(read_mask, rater_file)
            if mask.shape != pixels.shape:
                raise DimensionMismatch(
                    f"sample {entry.id!r}: image {pixels.shape} vs rater mask "
                    f"{mask.shape} ({rp})"
                )
            masks[r] = mask.data
        if entry.split in splits:
            image = _image_grid(dtype, pixels)  # dropped splits skip the float64 copy
            out[entry.split].append(Sample(id=entry.id, image=image, annotations=RaterStack(masks)))
    return out
