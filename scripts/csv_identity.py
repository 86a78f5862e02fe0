#!/usr/bin/env python3
"""Write a fixed matrix of experiment CSVs and their SHA256SUMS into OUTDIR.

A change that must not move any result is checked by running one copy of
this script (the change's, so both sides write the same matrix) against
each tree's sources into two directories and comparing the sums:

    PYTHONPATH=<parent>/src python3 scripts/csv_identity.py /tmp/before
    PYTHONPATH=src python3 scripts/csv_identity.py /tmp/after
    diff /tmp/before/SHA256SUMS /tmp/after/SHA256SUMS
    diff /tmp/before/dumps/DUMPSUMS /tmp/after/dumps/DUMPSUMS

A change that moves last digits is measured cell by cell instead:

    python3 scripts/csv_identity.py --compare /tmp/before /tmp/after

prints, for every CSV of the first directory, the number of cells that
differ and the largest relative difference |a - b| / max(|a|, |b|) among
them (inf where a differing cell is not a number or a row is missing).

The matrix: convergence, snr_sweep, ref_sweep and cdf at desk scale and at
(M, N, K, Nt) = (2, 2, 2, 2), (3, 2, 4, 2), (3, 3, 3, 4), (2, 3, 2, 1) and
the single cell (1, 2, 2, 2), plus the feedback table, each at seeds 1 and
2 with 4 trials, gamma = 10, 30 and 50 dB and no timestamp line. The four
solver kinds run once more at desk scale with ``--workers 2``, so the
trials are split into groups and across processes, and once more at desk
scale with 24 trials at seed 1: numpy adds fewer than 8 terms one by one
but more in eight interleaved partial sums, so these runs put the second
path under the check too (a reordered sum shows only where its last-bit
change reaches the 12 significant digits the CSVs print). zf is left out
where a cell has more users than antennas.
Every run goes through the ``sim`` command line; a config file sets the
network size, and at (3, 3, 3, 4) also every other network and solver key
(pmax, the iteration caps, lambda_min, both tolerances and refs) at a
non-default value. The feedback table also runs, at seeds 1 and 2 with 4
trials, at (M, N) = (1, 2) and (2, 3) from the (1, 2, 2, 2) and
(2, 3, 2, 1) config files: a trial's streams are read at offsets that
depend on M and N (M * K * (M + 24) shadowing values, then
(M + 24 + M) * M * K * N * Nt fading values), so these runs check the
prefixes beyond the desk. One more feedback run reads its k_list, nt_list,
qbits and refs from a config file, once at desk scale and once at
(2, 3, 2, 1), and one runs 40 trials at desk scale, so the trials are
drawn and their references selected in three chunks. Two more desk
feedback runs take 0 and 2 references, so the matrix covers both
selection paths (one argmin per beam at up to one reference, the ranks
above) at desk scale.

The per-step solver traces join the check too: one desk snr_sweep and one
desk ref_sweep at seed 1 also write their ``--dump-prefix`` files (trial 0's
topology, channels and one trace per solve) under OUTDIR/dumps, summed in
OUTDIR/dumps/DUMPSUMS, so SHA256SUMS keeps its matrix of CSVs. So does one
desk convergence run at seed 1 whose config file sets L_in_max = 2 and
L_out_max = 2, so the dumps also hold traces whose loops end on the caps.
"""
import argparse
import contextlib
import csv
import hashlib
import io
import itertools
import math
import sys
from pathlib import Path

SIZES = {"desk": None, "m2n2k2t2": (2, 2, 2, 2), "m3n2k4t2": (3, 2, 4, 2),
         "m3n3k3t4": (3, 3, 3, 4), "m2n3k2t1": (2, 3, 2, 1), "m1n2k2t2": (1, 2, 2, 2)}
KINDS = ("convergence", "snr_sweep", "ref_sweep", "cdf")
SEEDS = (1, 2)
COMMON = ["--trials", "4", "--gamma-db", "10,30,50", "--no-timestamp"]
ALGOS = ("cm", "zf", "mslnr", "icbf", "icbf_wi", "cb_refim")
#: Size label and the further config lines of its file.
TUNED = ("m3n3k3t4", "pmax = 2.5\nL_in_max = 25\nL_out_max = 3\nlambda_min = 1e-9\n"
                     "inner_tol = 1e-5\nouter_tol = 1e-3\nrefs = 2\n")
FEEDBACK_LISTS = "k_list = 2, 4, 7\nnt_list = 1,3\nqbits = 6\nrefs = 3\n"
#: The sizes, besides the desk, whose config files the feedback table runs at.
FEEDBACK_SIZES = ("m1n2k2t2", "m2n3k2t1")
#: The runs whose --dump-prefix files go under OUTDIR/dumps: name, kind and
#: the lines of its config file (none when empty).
DUMPED = (("snr_sweep", "snr_sweep", ""), ("ref_sweep", "ref_sweep", ""),
          ("convergence_capped", "convergence", "L_in_max = 2\nL_out_max = 2\n"))


def write_sums(path: Path, files: list[Path]) -> None:
    path.write_text("".join(f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.name}\n"
                            for p in files))


def run(argv: list[str]) -> None:
    from cbsim.cli import main as sim

    with contextlib.redirect_stdout(io.StringIO()):
        code = sim(argv)
    if code != 0:
        sys.exit(f"sim {' '.join(argv)} exited with {code}")


def cell_difference(a: str | None, b: str | None) -> float:
    """Relative difference of two cells: 0 when equal, inf where one is missing
    or either is not a number."""
    if a == b:
        return 0.0
    try:
        x, y = float(a), float(b)
    except (TypeError, ValueError):
        return math.inf
    return abs(x - y) / max(abs(x), abs(y)) if x != y else 0.0


def read_rows(path: Path) -> list[list[str]]:
    return list(csv.reader(path.read_text().splitlines())) if path.exists() else []


def compare(before: Path, after: Path) -> None:
    """Print the differing cells and their largest relative difference per CSV."""
    differing = 0
    for path in sorted(before.glob("*.csv")):
        rows = itertools.zip_longest(read_rows(path), read_rows(after / path.name), fillvalue=[])
        diffs = [cell_difference(a, b) for row_a, row_b in rows
                 for a, b in itertools.zip_longest(row_a, row_b) if a != b]
        differing += bool(diffs)
        print(f"{path.name:32s} {len(diffs):5d} cells differ, max rel {max(diffs, default=0.0):.3g}")
    print(f"{differing} CSVs differ")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir", type=Path, nargs="?")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("BEFORE", "AFTER"),
                        help="compare two output directories instead of writing one")
    args = parser.parse_args()
    if args.compare:
        compare(*args.compare)
        return
    if args.outdir is None:
        parser.error("need OUTDIR or --compare BEFORE AFTER")
    out = args.outdir
    out.mkdir(parents=True, exist_ok=True)
    csvs = []
    for label, size in SIZES.items():
        flags, algos = [], ALGOS
        if size is not None:
            m, n, k, nt = size
            cfg = out / f"{label}.cfg"
            cfg.write_text(f"M = {m}\nN = {n}\nK = {k}\nNt = {nt}\n"
                           + (TUNED[1] if label == TUNED[0] else ""))
            flags = ["--config", str(cfg)]
            if k > nt:                       # a crowded cell: zero-forcing cannot run
                algos = tuple(a for a in ALGOS if a != "zf")
        for kind in KINDS:
            for seed in SEEDS:
                path = out / f"{kind}_{label}_s{seed}.csv"
                run([kind, *flags, *COMMON, "--seed", str(seed), "--algo", ",".join(algos),
                     "--out", str(path)])
                csvs.append(path)
    for kind in KINDS:
        for seed in SEEDS:
            path = out / f"{kind}_desk_w2_s{seed}.csv"
            run([kind, *COMMON, "--workers", "2", "--seed", str(seed), "--algo", ",".join(ALGOS),
                 "--out", str(path)])
            csvs.append(path)
    for kind in KINDS:                       # the later --trials wins over COMMON's
        path = out / f"{kind}_desk_t24_s1.csv"
        run([kind, *COMMON, "--trials", "24", "--seed", "1", "--algo", ",".join(ALGOS),
             "--out", str(path)])
        csvs.append(path)
    for seed in SEEDS:
        path = out / f"feedback_s{seed}.csv"
        run(["feedback", "--trials", "4", "--seed", str(seed), "--no-timestamp",
             "--out", str(path)])
        csvs.append(path)
    for label in FEEDBACK_SIZES:
        for seed in SEEDS:
            path = out / f"feedback_{label}_s{seed}.csv"
            run(["feedback", "--config", str(out / f"{label}.cfg"), "--trials", "4",
                 "--seed", str(seed), "--no-timestamp", "--out", str(path)])
            csvs.append(path)
    for label, size_lines in (("", ""), ("_m2n3k2t1", (out / "m2n3k2t1.cfg").read_text())):
        cfg, path = out / f"feedback_lists{label}.cfg", out / f"feedback_lists{label}_s1.csv"
        cfg.write_text(size_lines + FEEDBACK_LISTS)
        run(["feedback", "--config", str(cfg), "--trials", "4", "--seed", "1", "--no-timestamp",
             "--out", str(path)])
        csvs.append(path)
    path = out / "feedback_t40_s1.csv"
    run(["feedback", "--trials", "40", "--seed", "1", "--no-timestamp", "--out", str(path)])
    csvs.append(path)
    for refs in (0, 2):
        path = out / f"feedback_r{refs}_s1.csv"
        run(["feedback", "--trials", "4", "--seed", "1", "--refs", str(refs), "--no-timestamp",
             "--out", str(path)])
        csvs.append(path)
    write_sums(out / "SHA256SUMS", csvs)
    dumps = out / "dumps"
    dumps.mkdir(exist_ok=True)
    for name, kind, lines in DUMPED:
        flags = []
        if lines:
            cfg = dumps / f"{name}.cfg"
            cfg.write_text(lines)
            flags = ["--config", str(cfg)]
        run([kind, *flags, *COMMON, "--seed", "1", "--algo", ",".join(ALGOS),
             "--out", str(dumps / f"{name}.csv"), "--dump-prefix", str(dumps / name)])
    dumped = sorted(p for name, _, _ in DUMPED for p in dumps.glob(f"{name}_*.csv"))
    write_sums(dumps / "DUMPSUMS", dumped)
    print(f"{len(csvs)} CSVs and SHA256SUMS, {len(dumped)} dumps and dumps/DUMPSUMS "
          f"written under {out}/")


if __name__ == "__main__":
    main()
