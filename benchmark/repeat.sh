#!/usr/bin/env bash
# Runs the whole benchmark twice on the same code and seed and checks that
# the two runs agree: sim_*, sim.*, epc_pages and count.* byte for byte,
# every host-time end-to-end metric within its bound. Prints both side by
# side. The one argument it takes is the seed, so a held-out seed is
#   benchmark/repeat.sh --seed 0x5EED2
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
case "$#:${1-}" in
    0: | 2:--seed) ;;
    *) echo "usage: $0 [--seed <n>]" >&2; exit 2 ;;
esac
for run in 1 2; do
    # Only an all-workloads run at full scale writes results.json: a stale
    # one must not stand in for a run that wrote none.
    rm -f "$here/out/results.json"
    cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- "$@"
    mv "$here/out/results.json" "$here/out/repeat-$run.json"
done
python3 - "$here/out/repeat-1.json" "$here/out/repeat-2.json" <<'PY'
import json, sys

first, second = (json.load(open(path)) for path in sys.argv[1:3])
bad = 0
print(f"{'workload':<17} {'metric':<28} {'run 1':>16} {'run 2':>16}  verdict")
for a, b in zip(first["workloads"], second["workloads"]):
    for kind in ("end_to_end", "per_layer"):
        for x, y in zip(a[kind], b[kind]):
            name = x["name"]
            exact = name.startswith(("sim_", "sim.", "count.")) or name == "epc_pages"
            if exact:
                ok = x["value"] == y["value"]
                verdict = "identical" if ok else "DIFFERS"
            elif kind == "end_to_end":
                worse = max(x["value"], y["value"])
                gap = abs(x["value"] - y["value"]) / worse if worse else 0.0
                ok = gap <= x["bound"]
                verdict = f"{gap:.1%} of {x['bound']:.0%}" + ("" if ok else " EXCEEDED")
            else:
                continue
            bad += not ok
            print(f"{a['name']:<17} {name:<28} {x['value']:>16.4f} {y['value']:>16.4f}  {verdict}")
        for run in (a, b):
            if not run[kind + "_check"]["correct"]:
                bad += 1
                print(f"{run['name']}: {kind} output check failed")
sys.exit(1 if bad else 0)
PY
