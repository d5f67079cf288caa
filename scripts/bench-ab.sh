#!/usr/bin/env bash
# bench-ab.sh PARENT WORKLOAD [PAIRS] [METRIC] — the paired protocol a
# performance claim needs (choosing-metrics §8), run from the change's
# checkout: PAIRS untraced passes of one BENCHMARK.json workload a side,
# alternating which checkout goes first, each built by its own
# benchmark/run.sh; every pair, each side's median and quartiles, the
# change's wins; then seed 1000003, which no one tuned against, once a side.
set -euo pipefail
parent=$(cd "$1" && pwd) change=$PWD workload=$2 pairs=${3:-10} metric=${4:-work_per_s}
secs=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
cmp='>'
if grep -A3 "\"name\": \"$metric\"" BENCHMARK.json | grep -q '"better": "lower"'; then cmp='<'; fi
run() { # checkout, extra flags... -> the metric's value from the driver line
	(cd "$1" && shift && bash benchmark/run.sh --workload "$workload" --seconds "$secs" --trace 0 "$@") |
		tail -n 1 | sed -n "s/.*\"$metric\":{\"value\":\([^,]*\),.*/\1/p"
}
summary() { # values on stdin -> median and quartiles
	sort -g | awk '{a[NR]=$1} END{q=int((NR+3)/4); printf "median %g  Q1..Q3 %g..%g\n", (a[int((NR+1)/2)]+a[int(NR/2)+1])/2, a[q], a[NR+1-q]}'
}
wins=0 ps="" cs=""
for i in $(seq "$pairs"); do
	if ((i % 2)); then
		p=$(run "$parent") c=$(run "$change") order="parent first"
	else
		c=$(run "$change") p=$(run "$parent") order="change first"
	fi
	win=$(awk "BEGIN{print ($c $cmp $p)}")
	wins=$((wins + win)) ps+="$p"$'\n' cs+="$c"$'\n'
	echo "pair $i ($order): $workload $metric parent $p change $c$([ "$win" = 1 ] && echo '  change wins')"
done
echo "parent: $(printf %s "$ps" | summary)"
echo "change: $(printf %s "$cs" | summary)"
echo "change wins $wins of $pairs pairs (better is '$cmp')"
echo "seed 1000003: parent $(run "$parent" --seed 1000003) change $(run "$change" --seed 1000003)"
