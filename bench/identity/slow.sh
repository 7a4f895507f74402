#!/usr/bin/env bash
# The slow half of the identity check. The fast experiments' stdout is
# pinned byte for byte by `dune runtest` (the *.expected files here);
# the slow ones are pinned by MD5 in slow.tsv, one line per output:
#   - the stdout of table4, fig10, fig11, ablations and crashbench;
#   - the "deterministic" half of every BENCH_*.json except BENCH_lint,
#     which counts source files (like fig7, it should move when code is
#     deleted). BENCH_sim's rows also drop par_batches and par_computes:
#     they count the batches the engine handed to its domain pool, so
#     they follow the domain count, which VOS_SIM_DOMAINS overrides;
#   - BENCH_trace.ktrace;
#   - the stdout of `vos_fuzz --corpus test/fuzz_corpus.txt`: every
#     corpus entry's outcome and session digest.
#
# Usage, from the repository root:
#   bash bench/identity/slow.sh           # check against slow.tsv
#   bash bench/identity/slow.sh --write   # regenerate slow.tsv
#
# A line may change only in a change whose CHANGES.md entry names it and
# says why. Run it under VOS_SIM_DOMAINS=2 as well: the pinned outputs
# must not depend on the engine's domain count.
set -euo pipefail

root=$(cd "$(dirname "$0")/../.." && pwd)
manifest="$root/bench/identity/slow.tsv"
mode=${1:-check}

dune build --root "$root" bench/main.exe bin/vos_fuzz.exe 2>&1
exe="$root/_build/default/bench/main.exe"
fuzz="$root/_build/default/bin/vos_fuzz.exe"
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"

out="$work/slow.tsv"
: >"$out"
line() { printf '%s\t%s\n' "$1" "$(md5sum | cut -d' ' -f1)" >>"$out"; }
# Each experiment's wall seconds go to stderr, so a log shows what the
# check costs; nothing hashed depends on them.
timed() { local TIMEFORMAT="$1: %R s wall"; time "$exe" "$1"; }

for e in table4 fig10 fig11 ablations crashbench; do
  timed "$e" >"$e.out"
  line "$e.stdout" <"$e.out"
done
for e in iobench schedbench ipcbench tracebench obsbench simbench fuzzbench; do
  timed "$e" >/dev/null
done
# The hashed text is the file as Report printed it, cut by line: Report
# is the only printer and puts each top-level key on its own line, with
# "deterministic" first and "host" after it. No JSON tool reformats it,
# so the hashes do not depend on one's version.
det() { awk '/^  "host": /{exit} {print}' "$1"; }
for f in BENCH_*.json; do
  if [ "$f" = BENCH_sim.json ]; then
    det "$f" | sed -E 's/"par_batches": [0-9]+, "par_computes": [0-9]+, //'
  else
    det "$f"
  fi | line "$f.deterministic"
done
line BENCH_trace.ktrace <BENCH_trace.ktrace
TIMEFORMAT="corpus: %R s wall"
time "$fuzz" --corpus "$root/test/fuzz_corpus.txt" >corpus.out
line vos_fuzz.corpus.stdout <corpus.out

if [ "$mode" = --write ]; then
  cp "$out" "$manifest"
  echo "wrote $manifest ($(wc -l <"$out") lines)"
else
  diff -u "$manifest" "$out"
  echo "identity: all $(wc -l <"$out") slow outputs match"
fi
