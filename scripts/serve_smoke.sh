#!/usr/bin/env bash
# serve_smoke.sh — end-to-end smoke of the serving layer (Makefile
# target `serve-smoke`, part of `make ci`).
#
# Trains a tiny model, boots `tdc serve` on an ephemeral port, drives
# the four endpoints with curl and asserts the JSON fields scripted
# clients depend on: model_hash consistency, classify results shape,
# reload idempotence, modelz metadata. Finishes with a SIGTERM and
# checks the drain exits cleanly, then sends SIGTERM to a second server
# the moment it announces its address and requires a clean exit too.
set -euo pipefail

cd "$(dirname "$0")/.."
dir=$(mktemp -d)
server_pid=""
cleanup() {
  if [ -n "$server_pid" ] && kill -0 "$server_pid" 2>/dev/null; then
    kill -9 "$server_pid" 2>/dev/null || true
  fi
  rm -rf "$dir"
}
trap cleanup EXIT

fail() { echo "serve-smoke: FAIL: $*" >&2; [ -f "$dir/serve.out" ] && sed 's/^/  server: /' "$dir/serve.out" >&2; exit 1; }

command -v jq >/dev/null || fail "jq is required"
command -v curl >/dev/null || fail "curl is required"

echo "serve-smoke: building tdc"
go build -o "$dir/tdc" ./cmd/tdc

echo "serve-smoke: training tiny model"
"$dir/tdc" train -profile smoke -scale 0.006 -method df -out "$dir/model.json" >/dev/null

echo "serve-smoke: starting server"
"$dir/tdc" serve -model "$dir/model.json" -method df -addr localhost:0 \
  -timeout 30s -drain 5s >"$dir/serve.out" 2>&1 &
server_pid=$!

base=""
for _ in $(seq 1 100); do
  base=$(sed -n 's#^serving on \(http://.*\)$#\1#p' "$dir/serve.out" | head -1)
  [ -n "$base" ] && break
  kill -0 "$server_pid" 2>/dev/null || fail "server exited during startup"
  sleep 0.1
done
[ -n "$base" ] || fail "server never printed its address"
echo "serve-smoke: server at $base"

# --- healthz ---------------------------------------------------------
health=$(curl -fsS "$base/v1/healthz")
[ "$(jq -r .status <<<"$health")" = "ok" ] || fail "healthz status: $health"
hash=$(jq -r .model_hash <<<"$health")
grep -Eq '^[0-9a-f]{64}$' <<<"$hash" || fail "healthz model_hash not a sha256: $hash"

# --- classify: single ------------------------------------------------
single=$(curl -fsS -H 'Content-Type: application/json' \
  -d '{"id":"smoke-1","text":"oil crude barrel prices rose sharply"}' \
  "$base/v1/classify")
[ "$(jq -r .model_hash <<<"$single")" = "$hash" ] || fail "classify hash != healthz hash: $single"
[ "$(jq '.results | length' <<<"$single")" = "1" ] || fail "single classify result count: $single"
[ "$(jq -r '.results[0].id' <<<"$single")" = "smoke-1" ] || fail "classify did not echo id: $single"
jq -e '.results[0].categories | type == "array"' <<<"$single" >/dev/null || fail "categories not an array: $single"

# --- classify: batch with scores -------------------------------------
batch=$(curl -fsS -H 'Content-Type: application/json' \
  -d '{"documents":[{"id":"a","text":"wheat corn grain tonnes shipment"},{"id":"b","text":"bank rate money interest"}],"scores":true}' \
  "$base/v1/classify")
[ "$(jq '.results | length' <<<"$batch")" = "2" ] || fail "batch result count: $batch"
jq -e '.results[0].predictions | length > 0' <<<"$batch" >/dev/null || fail "scores:true returned no predictions: $batch"
jq -e '.results[0].predictions[0] | has("category") and has("score") and has("in_class")' <<<"$batch" >/dev/null \
  || fail "prediction shape: $batch"

# --- malformed request -> 400 ----------------------------------------
code=$(curl -s -o /dev/null -w '%{http_code}' -d 'not json' "$base/v1/classify")
[ "$code" = "400" ] || fail "malformed body got HTTP $code, want 400"

# --- reload (same file) ----------------------------------------------
reload=$(curl -fsS -X POST "$base/v1/reload")
[ "$(jq -r .model_hash <<<"$reload")" = "$hash" ] || fail "reload changed hash unexpectedly: $reload"
[ "$(jq -r .changed <<<"$reload")" = "false" ] || fail "reload of identical snapshot reported changed: $reload"

# --- modelz ----------------------------------------------------------
modelz=$(curl -fsS "$base/v1/modelz")
[ "$(jq -r .model_hash <<<"$modelz")" = "$hash" ] || fail "modelz hash: $modelz"
[ "$(jq -r '.models[0].versions[0].feature_method' <<<"$modelz")" = "df" ] || fail "modelz feature_method: $modelz"
jq -e '.models[0].versions[0].categories | length > 0' <<<"$modelz" >/dev/null || fail "modelz categories empty: $modelz"
jq -e '.metrics.counters["serve.docs"] >= 3' <<<"$modelz" >/dev/null || fail "modelz serve.docs counter: $modelz"
jq -e '.metrics.counters["http.classify.requests"] >= 3' <<<"$modelz" >/dev/null || fail "modelz http counters: $modelz"

# --- models ----------------------------------------------------------
# A snapshot-file server is a one-entry registry: one model named
# "default" whose only version is "current", resident, latest, and
# carrying the served hash.
models=$(curl -fsS "$base/v1/models")
[ "$(jq -r .default_model <<<"$models")" = "default" ] || fail "models default_model: $models"
[ "$(jq '.models | length' <<<"$models")" = "1" ] || fail "models count: $models"
[ "$(jq -r '.models[0].name' <<<"$models")" = "default" ] || fail "models name: $models"
[ "$(jq -r '.models[0].versions[0].version' <<<"$models")" = "current" ] || fail "models version: $models"
[ "$(jq -r '.models[0].versions[0].sha256' <<<"$models")" = "$hash" ] || fail "models sha256: $models"
jq -e '.models[0].versions[0].latest and .models[0].versions[0].resident' <<<"$models" >/dev/null \
  || fail "models latest/resident flags: $models"

# --- statz -----------------------------------------------------------
# By here the script has made exactly 3 classify calls: single, batch
# and malformed (400) — reload/healthz/modelz are other routes and must
# not count. statz request accounting has to agree.
statz=$(curl -fsS "$base/v1/statz")
[ "$(jq -r .model_hash <<<"$statz")" = "$hash" ] || fail "statz hash: $statz"
jq -e '.uptime_seconds > 0' <<<"$statz" >/dev/null || fail "statz uptime: $statz"
[ "$(jq -r .requests.total <<<"$statz")" = "3" ] || fail "statz requests.total != 3 classify calls: $statz"
[ "$(jq -r .requests.ok <<<"$statz")" = "2" ] || fail "statz requests.ok != 2: $statz"
[ "$(jq -r .requests.client_error <<<"$statz")" = "1" ] || fail "statz requests.client_error != 1: $statz"
[ "$(jq -r .requests.shed <<<"$statz")" = "0" ] || fail "statz sheds in a serial smoke: $statz"
[ "$(jq -r .requests.timeout <<<"$statz")" = "0" ] || fail "statz timeouts in a serial smoke: $statz"
[ "$(jq -r .requests.panics <<<"$statz")" = "0" ] || fail "statz panics: $statz"
[ "$(jq -r .docs_classified <<<"$statz")" = "3" ] || fail "statz docs_classified != 3 (1 single + 2 batch): $statz"
[ "$(jq -r .stages.classify.count <<<"$statz")" = "2" ] || fail "statz classify stage count != 2 scored jobs: $statz"
jq -e '.stages.classify.p50_us <= .stages.classify.p99_us' <<<"$statz" >/dev/null \
  || fail "statz classify percentiles not monotone: $statz"
jq -e '.latency.count == 3 and .latency.p50_us > 0' <<<"$statz" >/dev/null || fail "statz latency: $statz"

# Request-id round trip: a client-chosen id must be echoed.
rid=$(curl -fsS -o /dev/null -D - -H 'X-Request-ID: smoke-rid-1' "$base/v1/healthz" \
  | tr -d '\r' | sed -n 's/^X-Request-Id: //Ip' | head -1)
[ "$rid" = "smoke-rid-1" ] || fail "X-Request-ID not echoed: got '$rid'"

# --- graceful shutdown -----------------------------------------------
kill -TERM "$server_pid"
if ! wait "$server_pid"; then
  fail "server did not exit cleanly on SIGTERM"
fi
server_pid=""

# --- SIGTERM right at startup ----------------------------------------
# The signal handler must be installed before the address line is
# printed: a SIGTERM sent the moment the line appears gets a drain and
# exit status 0, never the default kill.
"$dir/tdc" serve -model "$dir/model.json" -addr localhost:0 -drain 5s >"$dir/serve.out" 2>&1 &
server_pid=$!
for _ in $(seq 1 2000); do
  grep -q '^serving on ' "$dir/serve.out" && break
  kill -0 "$server_pid" 2>/dev/null || fail "second server exited during startup"
  sleep 0.005
done
grep -q '^serving on ' "$dir/serve.out" || fail "second server never printed its address"
kill -TERM "$server_pid"
status=0
wait "$server_pid" || status=$?
server_pid=""
[ "$status" = "0" ] || fail "SIGTERM right after startup: exit status $status, want 0"
echo "serve-smoke: OK"
