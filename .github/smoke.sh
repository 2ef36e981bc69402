#!/usr/bin/env bash
# End-to-end run of the installed `adsbplace` console script and its bundled
# clustered21.csv: augment, evaluate on the free-standing and the matched
# path, report, and a malformed sensor file. Run it from an empty directory
# outside the checkout, so that the installed package is the one imported:
#
#     cd "$(mktemp -d)" && bash /path/to/checkout/.github/smoke.sh
#
# It exits non-zero on the first failing command or check. smoke.json has no
# deployment, so the first evaluate scores the augment solution as a
# free-standing problem; under the augment copy every row is a candidate
# site and none is logged.
set -euo pipefail

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
adsbplace report front
printf 'id,lat_deg,lon_deg,alt_m\nx,abc,7.0,0\n' > bad.csv
code=0
adsbplace evaluate --config smoke.json --sensors bad.csv --out bad 2> bad.err || code=$?
cat bad.err
test "$code" -eq 2
grep -q "^error: bad.csv: line 2: " bad.err
