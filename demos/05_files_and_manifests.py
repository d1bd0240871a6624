"""On-disk formats: array files, label sidecars, manifests, interop.

Embedding dumps are plain NPY v1.0 files (little-endian float32/float64,
C order) whose headers numpy's own format module reads and writes behind
this package's checks, so they interoperate with any standard tooling. Labels live in 1-D integer
sidecar files, handed to a dump when it is opened; a JSON manifest ties
files to modalities and is the input to the accumulation pipeline.

Run:  python3 demos/05_files_and_manifests.py
"""

import tempfile
from pathlib import Path

import numpy as np

from spectrune import (
    DatasetManifest,
    EmbeddingDump,
    EmbeddingMatrix,
    ManifestEntry,
    load_array_file,
    load_label_file,
    load_manifest,
    save_array_file,
    save_label_file,
    save_manifest,
    split_by_label,
)

tmp = tempfile.TemporaryDirectory(prefix="spectrune-demo-")
workdir = Path(tmp.name)
rng = np.random.default_rng(3)

# Write two shards of image embeddings plus labels for the first. The rows
# carry no modality: the manifest below names each shard's.
img_a = EmbeddingMatrix(rng.standard_normal((100, 32)), labels=rng.integers(0, 4, 100))
img_b = EmbeddingMatrix(rng.standard_normal((80, 32)))
txt = EmbeddingMatrix(rng.standard_normal((120, 32)))

save_array_file(img_a, workdir / "img_a.npy")
save_label_file(img_a.labels, workdir / "img_a_labels.npy")
save_array_file(img_b, workdir / "img_b.npy")
save_array_file(txt, workdir / "txt.npy")

# The round trip is bit-exact for float64 payloads.
back = load_array_file(
    workdir / "img_a.npy", labels=load_label_file(workdir / "img_a_labels.npy")
)
print(f"bit-exact round trip: {back.data.tobytes() == img_a.data.tobytes()}")

# Interop: the files are ordinary NPY, numpy reads them directly.
print(f"numpy agrees with our writer: {np.array_equal(np.load(workdir / 'txt.npy'), txt.data)}")

# A manifest names every shard and its modality.
manifest = DatasetManifest(
    name="demo",
    entries=(
        ManifestEntry(workdir / "img_a.npy", "image"),
        ManifestEntry(workdir / "img_b.npy", "image"),
        ManifestEntry(workdir / "txt.npy", "text"),
    ),
)
save_manifest(manifest, workdir / "manifest.json")
print(f"\nmanifest written: {workdir / 'manifest.json'}")
print((workdir / "manifest.json").read_text())

# Loading resolves and validates paths. Opening a dump reads only its
# header and the labels it is handed, here from the sidecar beside it, and
# its rows then stream in blocks.
loaded = load_manifest(workdir / "manifest.json")
for entry in loaded.entries:
    if entry.modality != "image":
        continue
    sidecar = entry.path.with_name(entry.path.stem + "_labels.npy")
    labels = load_label_file(sidecar) if sidecar.is_file() else None
    with EmbeddingDump(entry.path, labels=labels) as dump:
        tagged = "labeled" if dump.labels is not None else "unlabeled"
        rows = sum(block.n for block in dump.blocks())
        print(f"  image shard: {rows} rows x {dump.d} cols, {tagged}")

# Labeled shards split cleanly into per-class parts.
parts = split_by_label(back)
print(f"\nclass parts of the labeled shard: { {k: v.n for k, v in sorted(parts.items())} }")

tmp.cleanup()
