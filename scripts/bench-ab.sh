#!/usr/bin/env bash
# bench-ab.sh PARENT WORKLOAD [PAIRS] [METRIC] — the paired protocol a
# performance claim needs (choosing-metrics §8), run from the change's
# checkout: PAIRS untraced passes of one BENCHMARK.json workload a side,
# alternating which checkout goes first, each built by its own
# benchmark/run.sh; every pair, each side's median and quartiles, the
# change's wins; then seed 1000003, which no one tuned against, once a side;
# last, whether the pairs carry a claimed gain by that section's rule — the
# change wins at least nine tenths of them and the medians differ, the right
# way round, by more than the parent's own quartile spread — with exit
# status 1 when they do not.
set -euo pipefail
parent=$(cd "$1" && pwd) change=$PWD workload=$2 pairs=${3:-10} metric=${4:-work_per_s}
secs=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
cmp='>'
if grep -A3 "\"name\": \"$metric\"" BENCHMARK.json | grep -q '"better": "lower"'; then cmp='<'; fi
run() { # checkout, extra flags... -> the metric's value from the driver line
	(cd "$1" && shift && bash benchmark/run.sh --workload "$workload" --seconds "$secs" --trace 0 "$@") |
		tail -n 1 | sed -n "s/.*\"$metric\":{\"value\":\([^,]*\),.*/\1/p"
}
summary() { # values on stdin -> "median Q1 Q3"
	sort -g | awk '{a[NR]=$1} END{q=int((NR+3)/4); print (a[int((NR+1)/2)]+a[int(NR/2)+1])/2, a[q]+0, a[NR+1-q]+0}'
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
read -r pm pq1 pq3 < <(printf %s "$ps" | summary)
read -r cm cq1 cq3 < <(printf %s "$cs" | summary)
echo "parent: median $pm  Q1..Q3 $pq1..$pq3"
echo "change: median $cm  Q1..Q3 $cq1..$cq3"
echo "change wins $wins of $pairs pairs (better is '$cmp')"
echo "seed 1000003: parent $(run "$parent" --seed 1000003) change $(run "$change" --seed 1000003)"
awk -v w="$wins" -v p="$pairs" -v pm="$pm" -v cm="$cm" -v q1="$pq1" -v q3="$pq3" -v cmp="$cmp" 'BEGIN{
	gap = cmp == ">" ? cm - pm : pm - cm; spread = q3 - q1
	if (10*w >= 9*p && gap > spread) { print "claim holds"; exit 0 }
	printf "claim does not hold: wins %d of %d (need >= %g), median gap %g vs parent Q3-Q1 %g\n", w, p, 0.9*p, gap, spread; exit 1
}'
