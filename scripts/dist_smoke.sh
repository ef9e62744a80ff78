#!/usr/bin/env bash
# Distributed-sweep smoke test: every way of distributing `exegpt sweep`
# across processes on one box must reproduce the single-process sweep
# byte for byte — `cmp` on the -json artifact and `diff` on the printed
# table. Run from the repository root after building ./exegpt
# (`make dist-smoke` does both). Scratch files go to .dist-smoke/.
#
# Each scenario names the grid it runs; the single-process reference is
# computed once per grid, and all runs share one profile cache.
set -euo pipefail

BIN=./exegpt
DIR=.dist-smoke
HTTP_ADDR=127.0.0.1:18080
RESUME_ADDR=127.0.0.1:18091

declare -A GRIDS=(
	[base]="-quick -models OPT-13B -tasks S,T"
	# -requests slows each cell (~1 s at 20000, a few seconds at 60000)
	# so the kills below land while cells are still outstanding; a kill
	# that lands after completion still compares clean, just less
	# interestingly.
	[resume]="-quick -requests 20000 -models OPT-13B -tasks S,T,G"
	[scale]="-quick -requests 60000 -models OPT-13B -tasks S,T,G"
)

# name grid — run_<name> writes $DIR/<name>.json and $DIR/<name>.txt.
SCENARIOS=(
	"spool base"
	"forked base"
	"http base"
	"http-forked base"
	"resume resume"
	"scale scale"
)

rm -rf "$DIR" && mkdir -p "$DIR/profiles"
PC=(-profile-cache "$DIR/profiles")

# A coordinator-only file-spool sweep plus two hand-attached pull
# workers, one killed right after launch so any leases it held requeue;
# the survivor steals the rest.
run_spool() {
	$BIN sweep $1 "${PC[@]}" -mode dispatch -dispatch-workers 0 -spool "$DIR/spool" \
		-lease-timeout 3s -json "$DIR/spool.json" > "$DIR/spool.txt" &
	local coord=$!
	$BIN sweep $1 "${PC[@]}" -mode pull -spool "$DIR/spool" -worker-id w1 &
	local w1=$!
	sleep 0.3 && kill -9 $w1 2>/dev/null || true
	$BIN sweep $1 "${PC[@]}" -mode pull -spool "$DIR/spool" -worker-id w2
	wait $coord
	wait $w1 || true
}

# The forked-fleet mode: local pull workers over a temporary spool.
run_forked() {
	$BIN sweep $1 "${PC[@]}" -mode dispatch -dispatch-workers 2 \
		-json "$DIR/forked.json" > "$DIR/forked.txt"
}

# A coordinator-only HTTP sweep whose /v1/status must answer while the
# sweep runs, then two workers attaching over TCP, one killed mid-sweep
# and replaced by a late-attaching worker (elastic fleet).
run_http() {
	local url=http://$HTTP_ADDR
	$BIN sweep $1 "${PC[@]}" -mode dispatch -dispatch-workers 0 -http $HTTP_ADDR \
		-lease-timeout 3s -dispatch-idle 60s \
		-json "$DIR/http.json" > "$DIR/http.txt" &
	local coord=$!
	# No worker has attached yet, so the sweep cannot have finished.
	local cells tries=0
	cells=$(sed -n 's/^  "cells": \([0-9]*\),$/\1/p' "$DIR/single-base.json")
	until curl -sf "$url/v1/status" > "$DIR/status.json"; do
		tries=$((tries + 1))
		[ $tries -lt 50 ] || { echo "dist-smoke: $url/v1/status never answered" >&2; return 1; }
		sleep 0.1
	done
	grep -q "\"total\": *$cells\b" "$DIR/status.json" ||
		{ echo "dist-smoke: status does not report $cells cells: $(cat "$DIR/status.json")" >&2; return 1; }
	$BIN sweep $1 "${PC[@]}" -mode pull -connect $url -worker-id w1 &
	local w1=$!
	sleep 0.3 && kill -9 $w1 2>/dev/null || true
	# The replacement tolerates having lost the race against a sweep
	# small enough for w1 to finish before the kill landed; the cmp is
	# the real assertion either way.
	$BIN sweep $1 "${PC[@]}" -dispatch-idle 15s -mode pull -connect $url -worker-id w2 || true
	wait $coord
	wait $w1 || true
}

# The forked-fleet mode over a loopback HTTP API.
run_http_forked() {
	$BIN sweep $1 "${PC[@]}" -mode dispatch -http 127.0.0.1:0 -dispatch-workers 2 \
		-json "$DIR/http-forked.json" > "$DIR/http-forked.txt"
}

# A journaled coordinator-only HTTP sweep is SIGKILLed mid-run (one of
# its workers is too); a fresh coordinator replays the journal on the
# same address and finishes the remaining cells with the surviving
# worker and one of its own.
run_resume() {
	local url=http://$RESUME_ADDR
	$BIN sweep $1 "${PC[@]}" -mode dispatch -dispatch-workers 0 -http $RESUME_ADDR \
		-journal "$DIR/journal" -lease-timeout 3s -dispatch-idle 60s > /dev/null &
	local c1=$!
	$BIN sweep $1 "${PC[@]}" -mode pull -connect $url -worker-id w1 &
	local w1=$!
	$BIN sweep $1 "${PC[@]}" -dispatch-idle 30s -mode pull -connect $url -worker-id w2 &
	local w2=$!
	sleep 0.3 && kill -9 $w1 2>/dev/null || true
	sleep 1.0 && kill -9 $c1 2>/dev/null || true
	$BIN sweep $1 "${PC[@]}" -mode dispatch -http $RESUME_ADDR -dispatch-workers 1 \
		-journal "$DIR/journal" -lease-timeout 3s -dispatch-idle 60s \
		-json "$DIR/resume.json" > "$DIR/resume.txt"
	wait $w1 $c1 $w2 || true
}

# A supervised fleet: it starts one local pull worker, scales to three
# on queue depth, and when one worker is SIGKILLed mid-lease replaces it
# with the slot's next incarnation; the coordinator log must show both.
run_scale() {
	$BIN sweep $1 "${PC[@]}" -mode dispatch -http 127.0.0.1:0 -scale-min 1 -scale-max 3 \
		-lease-timeout 3s -dispatch-idle 120s \
		-json "$DIR/scale.json" > "$DIR/scale.txt" 2> "$DIR/scale.log" &
	local coord=$!
	sleep 2.0 && pkill -9 -f 'worker-id [s]0r0' 2>/dev/null || true
	wait $coord
	grep -q 'supervisor: started worker s2r0' "$DIR/scale.log"
	grep -q 'supervisor: started worker s0r1' "$DIR/scale.log"
}

for entry in "${SCENARIOS[@]}"; do
	read -r name grid <<< "$entry"
	if [ ! -f "$DIR/single-$grid.json" ]; then
		$BIN sweep ${GRIDS[$grid]} "${PC[@]}" \
			-json "$DIR/single-$grid.json" > "$DIR/single-$grid.txt"
	fi
	"run_${name//-/_}" "${GRIDS[$grid]}"
	cmp "$DIR/single-$grid.json" "$DIR/$name.json"
	diff "$DIR/single-$grid.txt" "$DIR/$name.txt"
	echo "dist-smoke: $name == single-process sweep (byte-identical)"
done
