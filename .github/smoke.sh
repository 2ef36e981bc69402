#!/usr/bin/env bash
# End-to-end run of the installed `adsbplace` console script and its bundled
# clustered21.csv: augment, evaluate on the free-standing and the matched
# path, the matched scores against the front's row, report, a malformed
# sensor file, a jammer count the grid pattern cannot place, a repeated
# jammer height, two runs of one seedless seeded-uniform config, and a JSR
# run whose jammer sits on a candidate site. A
# RuntimeWarning (a NaN or a division by zero the code does not expect)
# fails the run. Run it from an empty directory outside the checkout, so
# that the installed package is the one imported:
#
#     cd "$(mktemp -d)" && bash /path/to/checkout/.github/smoke.sh
#
# It exits non-zero on the first failing command or check. smoke.json has no
# deployment, so the first evaluate scores the augment solution as a
# free-standing problem; under the augment copy every row is a candidate
# site and none is logged.
set -euo pipefail
export PYTHONWARNINGS=error::RuntimeWarning

cat > smoke.json <<'JSON'
{"area": {"lat_low_deg": 47.4, "lat_up_deg": 51.4, "lon_low_deg": 5.71,
          "lon_up_deg": 9.71, "altitudes_m": [6000.0]},
 "grid": {"lat_count": 3, "lon_count": 3}, "candidates": {"count": 9},
 "jammers": {"count": 4, "heights_m": [6000.0]},
 "ga": {"population_size": 8, "generations": 2, "rng_seed": 1, "n_max": 4}}
JSON
sensors=$(python -c "from adsbplace.scenario import clustered21_path; print(clustered21_path())")
adsbplace augment --config smoke.json --sensors "$sensors" --out front --threads 1
adsbplace evaluate --config smoke.json --sensors front/solution_0.csv --out audit
python -c "import json, sys; doc = json.load(open('smoke.json')); doc['scenario'] = {'kind': 'augment', 'deployed_file': sys.argv[1]}; json.dump(doc, open('augment.json', 'w'))" "$sensors"
adsbplace evaluate --config augment.json --sensors front/solution_0.csv --out audit_augment 2> matched.err
cat matched.err
if grep -q "free-standing" matched.err; then exit 1; fi
# The matched evaluate scores solution 0 by the map the search used, so its
# scores.json holds pareto.csv row 0's values, as both files print them.
python - <<'PY'
import csv, json, sys
scores = json.load(open("audit_augment/scores.json"))
scores.update({f"{key}_norm": value for key, value in scores.pop("normalized").items()})
lines = [line for line in open("front/pareto.csv") if not line.startswith("#")]
header, row0 = list(csv.reader(lines))[:2]
columns = header[header.index("of1"):header.index("penalty") + 1] + ["n_sensors"]
differ = [key for key in columns if scores[key] != float(row0[header.index(key)])]
print(f"scores.json against pareto.csv row 0: {len(columns)} columns, differing: {differ}")
sys.exit(1 if differ else 0)
PY
adsbplace report front
printf 'id,lat_deg,lon_deg,alt_m\nx,abc,7.0,0\n' > bad.csv
code=0
adsbplace evaluate --config smoke.json --sensors bad.csv --out bad 2> bad.err || code=$?
cat bad.err
test "$code" -eq 2
grep -q "^error: bad.csv: line 2: " bad.err
# Five grid jammers do not divide between two heights: rejected when the
# config is parsed, with the field named.
python -c "import json; doc = json.load(open('smoke.json')); doc['jammers'] = {'count': 5, 'heights_m': [3000.0, 6000.0]}; json.dump(doc, open('jammers.json', 'w'))"
code=0
adsbplace optimize --config jammers.json --out jammers --threads 1 2> jammers.err || code=$?
cat jammers.err
test "$code" -eq 2
grep -q "^error: jammers.count: " jammers.err
# A repeated jammer height would place every grid jammer twice: rejected
# when the config is parsed, with the field named.
python -c "import json; doc = json.load(open('smoke.json')); doc['jammers'] = {'count': 4, 'heights_m': [6000.0, 6000.0]}; json.dump(doc, open('heights.json', 'w'))"
code=0
adsbplace optimize --config heights.json --out heights --threads 1 2> heights.err || code=$?
cat heights.err
test "$code" -eq 2
grep -q "^error: jammers.heights_m: " heights.err
# Seeded-uniform candidates and jammers without a seed draw from seed 0:
# two runs of one such config write the same front.
python -c "import json; doc = json.load(open('smoke.json')); doc['candidates'] = {'count': 9, 'pattern': 'seeded-uniform'}; doc['jammers'] = {'count': 4, 'heights_m': [6000.0], 'pattern': 'seeded-uniform'}; json.dump(doc, open('uniform.json', 'w'))"
adsbplace optimize --config uniform.json --out uniform1 --threads 1
adsbplace optimize --config uniform.json --out uniform2 --threads 1
cmp uniform1/pareto.csv uniform2/pareto.csv
# One ground jammer under the JSR rule with a nominal signal distance of 0,
# at the area centre, where the centre candidate sits too: its JSR there is
# 0 / 0.
python -c "import json; doc = json.load(open('smoke.json')); doc['jammers'] = {'count': 1, 'heights_m': [0.0], 'affect_rule': 'jsr', 'nominal_signal_distance_km': 0.0}; json.dump(doc, open('jsr.json', 'w'))"
adsbplace optimize --config jsr.json --out jsr --threads 1
