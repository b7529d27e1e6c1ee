#!/usr/bin/env bash
# The fuzz smoke of `make fuzz`, with a liveness check: it runs each target
# for FUZZTIME, prints how many inputs it executed, and fails a target whose
# exec counter did not advance over the last third of its run. Go's fuzz
# engine reports PASS however long it sat still — minimizing an input, or
# stuck in a target that hangs — so a run that stopped fuzzing early would
# otherwise look like one that fuzzed for the whole time.
#
# usage: scripts/fuzz.sh <fuzztime> <target> <package> [<target> <package> ...]
#
# <target> is a -fuzz pattern matching one fuzz test. GO names the go
# command (default go). Every target runs, and the script exits 1 if any
# failed or stalled.
set -u

GO=${GO:-go}
fuzztime=$1
shift
status=0
log=$(mktemp)
trap 'rm -f "$log"' EXIT

while [ $# -ge 2 ]; do
	target=$1 pkg=$2
	shift 2
	if ! "$GO" test -run='^$' -fuzz="$target" -fuzztime="$fuzztime" -fuzzminimizetime=2s "$pkg" >"$log" 2>&1; then
		cat "$log"
		echo "fuzz: $target $pkg: FAIL"
		status=1
		continue
	fi
	# Each status line reads "fuzz: elapsed: 1m3s, execs: 12345 (...)". The
	# counter at the end of the run must exceed the counter at the last line
	# at or before two thirds of it (the start counts as 0 execs at 0 s).
	verdict=$(awk -v target="$target" -v pkg="$pkg" '
		function seconds(d,   s, n, u) {
			s = 0
			while (match(d, /^[0-9.]+(h|ms|m|s)/)) {
				n = substr(d, 1, RLENGTH)
				u = n
				sub(/^[0-9.]+/, "", u)
				n += 0
				s += (u == "h") ? n * 3600 : (u == "m") ? n * 60 : (u == "ms") ? n / 1000 : n
				d = substr(d, RLENGTH + 1)
			}
			return s
		}
		BEGIN { n = 0; t[0] = 0; x[0] = 0 }
		/^fuzz: elapsed: .*, execs: [0-9]+/ {
			e = $0
			sub(/^fuzz: elapsed: /, "", e)
			sub(/,.*/, "", e)
			c = $0
			sub(/.*, execs: /, "", c)
			sub(/[^0-9].*/, "", c)
			n++
			t[n] = seconds(e)
			x[n] = c + 0
		}
		END {
			if (n == 0) {
				printf "fuzz: %s %s: no exec count reported\n", target, pkg
				exit 1
			}
			ref = 0
			for (i = 1; i <= n; i++) {
				if (t[i] <= t[n] * 2 / 3) {
					ref = i
				}
			}
			if (x[n] <= x[ref]) {
				printf "fuzz: %s %s: STALLED: %d execs at %gs and still %d at %gs\n", target, pkg, x[ref], t[ref], x[n], t[n]
				exit 1
			}
			printf "fuzz: %s %s: %d execs in %gs\n", target, pkg, x[n], t[n]
		}' "$log")
	if [ $? -ne 0 ]; then
		cat "$log"
		status=1
	fi
	echo "$verdict"
done
exit $status
