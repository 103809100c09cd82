#!/usr/bin/env bash
# registry_smoke.sh — end-to-end smoke of the model registry and
# multi-tenant serving (Makefile target `registry-smoke`, part of
# `make ci`).
#
# Trains two tiny models with different seeds, publishes them as
# tenant-a/v1 and tenant-b/v1 with `tdc publish`, boots `tdc serve
# -models-dir` and asserts: the /v1/models catalog, per-tenant classify
# routing (each response carries the hash the manifest promised),
# unknown-model 404s, and that publishing a third version becomes
# visible only after a /v1/reload rescan — latest resolves to it while
# the explicit old version keeps serving the old bytes. Finishes with a
# SIGTERM drain check.
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

fail() { echo "registry-smoke: FAIL: $*" >&2; [ -f "$dir/serve.out" ] && sed 's/^/  server: /' "$dir/serve.out" >&2; exit 1; }

command -v jq >/dev/null || fail "jq is required"
command -v curl >/dev/null || fail "curl is required"

echo "registry-smoke: building tdc"
go build -o "$dir/tdc" ./cmd/tdc

echo "registry-smoke: training two tiny models"
"$dir/tdc" train -profile smoke -scale 0.006 -method df -seed 5 -out "$dir/model-a.json" >/dev/null
"$dir/tdc" train -profile smoke -scale 0.006 -method df -seed 97 -out "$dir/model-b.json" >/dev/null

echo "registry-smoke: publishing tenant-a/v1 and tenant-b/v1"
models="$dir/models"
"$dir/tdc" publish -models-dir "$models" -name tenant-a -version v1 -snapshot "$dir/model-a.json" >/dev/null
"$dir/tdc" publish -models-dir "$models" -name tenant-b -version v1 -snapshot "$dir/model-b.json" >/dev/null
hash_a=$(jq -r .sha256 "$models/tenant-a/v1/manifest.json")
hash_b=$(jq -r .sha256 "$models/tenant-b/v1/manifest.json")
grep -Eq '^[0-9a-f]{64}$' <<<"$hash_a" || fail "tenant-a manifest sha256: $hash_a"
[ "$hash_a" != "$hash_b" ] || fail "different seeds produced identical snapshots"

# Republish of an existing version must fail: versions are immutable.
if "$dir/tdc" publish -models-dir "$models" -name tenant-a -version v1 \
    -snapshot "$dir/model-b.json" >/dev/null 2>&1; then
  fail "republish over tenant-a/v1 succeeded; versions must be immutable"
fi

echo "registry-smoke: starting server"
"$dir/tdc" serve -models-dir "$models" -addr localhost:0 \
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
echo "registry-smoke: server at $base"

# --- catalog ---------------------------------------------------------
catalog=$(curl -fsS "$base/v1/models")
[ "$(jq '.models | length' <<<"$catalog")" = "2" ] || fail "models count: $catalog"
# Two models and no configured default: unnamed requests must be rejected.
[ "$(jq -r '.default_model // empty' <<<"$catalog")" = "" ] || fail "unexpected default: $catalog"
jq -e --arg h "$hash_a" \
  '.models[] | select(.name == "tenant-a") | .versions[0] | .sha256 == $h and .latest and (.resident | not)' \
  <<<"$catalog" >/dev/null || fail "tenant-a/v1 catalog entry: $catalog"

# --- per-tenant routing ----------------------------------------------
a=$(curl -fsS -H 'Content-Type: application/json' \
  -d '{"id":"smoke-a","text":"oil crude barrel prices rose sharply","model":"tenant-a"}' \
  "$base/v1/classify")
[ "$(jq -r .model <<<"$a")" = "tenant-a" ] || fail "tenant-a response model: $a"
[ "$(jq -r .version <<<"$a")" = "v1" ] || fail "tenant-a response version: $a"
[ "$(jq -r .model_hash <<<"$a")" = "$hash_a" ] || fail "tenant-a served wrong snapshot: $a"
b=$(curl -fsS -H 'Content-Type: application/json' \
  -d '{"id":"smoke-b","text":"oil crude barrel prices rose sharply","model":"tenant-b"}' \
  "$base/v1/classify")
[ "$(jq -r .model_hash <<<"$b")" = "$hash_b" ] || fail "tenant-b served wrong snapshot: $b"

# Both tenants are resident now and the catalog says so.
catalog=$(curl -fsS "$base/v1/models")
jq -e '[.models[].versions[0].resident] == [true, true]' <<<"$catalog" >/dev/null \
  || fail "residency after traffic: $catalog"

# --- error paths -----------------------------------------------------
code=$(curl -s -o /dev/null -w '%{http_code}' -H 'Content-Type: application/json' \
  -d '{"text":"x","model":"nope"}' "$base/v1/classify")
[ "$code" = "404" ] || fail "unknown model got HTTP $code, want 404"
code=$(curl -s -o /dev/null -w '%{http_code}' -H 'Content-Type: application/json' \
  -d '{"text":"x"}' "$base/v1/classify")
[ "$code" = "400" ] || fail "unnamed request with two models got HTTP $code, want 400"

# --- third publish + rescan ------------------------------------------
echo "registry-smoke: publishing tenant-a/v2 and rescanning"
"$dir/tdc" publish -models-dir "$models" -name tenant-a -version v2 -snapshot "$dir/model-b.json" >/dev/null
# Not visible until a rescan.
code=$(curl -s -o /dev/null -w '%{http_code}' -H 'Content-Type: application/json' \
  -d '{"text":"x","model":"tenant-a","version":"v2"}' "$base/v1/classify")
[ "$code" = "404" ] || fail "pre-rescan v2 got HTTP $code, want 404"

rescan=$(curl -fsS -X POST "$base/v1/reload")
[ "$(jq -r .models <<<"$rescan")" = "2" ] || fail "rescan model count: $rescan"
[ "$(jq -r .versions <<<"$rescan")" = "3" ] || fail "rescan version count: $rescan"
[ "$(jq -r .skipped <<<"$rescan")" = "0" ] || fail "rescan skipped versions: $rescan"

# Latest now resolves to v2 (model B's bytes)…
latest=$(curl -fsS -H 'Content-Type: application/json' \
  -d '{"text":"wheat corn grain tonnes shipment","model":"tenant-a"}' "$base/v1/classify")
[ "$(jq -r .version <<<"$latest")" = "v2" ] || fail "latest after rescan: $latest"
[ "$(jq -r .model_hash <<<"$latest")" = "$hash_b" ] || fail "v2 hash: $latest"
# …while the pinned old version still serves the old bytes.
old=$(curl -fsS -H 'Content-Type: application/json' \
  -d '{"text":"wheat corn grain tonnes shipment","model":"tenant-a","version":"v1"}' "$base/v1/classify")
[ "$(jq -r .model_hash <<<"$old")" = "$hash_a" ] || fail "explicit v1 hash: $old"

# --- per-model statz -------------------------------------------------
statz=$(curl -fsS "$base/v1/statz")
[ "$(jq -r '.models["tenant-a"].requests' <<<"$statz")" = "3" ] || fail "tenant-a request count: $statz"
[ "$(jq -r '.models["tenant-b"].requests' <<<"$statz")" = "1" ] || fail "tenant-b request count: $statz"

# --- graceful shutdown -----------------------------------------------
kill -TERM "$server_pid"
if ! wait "$server_pid"; then
  fail "server did not exit cleanly on SIGTERM"
fi
server_pid=""
echo "registry-smoke: OK"
