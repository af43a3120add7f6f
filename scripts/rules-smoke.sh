#!/usr/bin/env bash
# End-to-end smoke test for rule packs (`wap rules` + `--rules`), run by
# CI after a release build:
#
#   1. author a custom pack manifest, wrap it in a ustar tarball, and
#      install it with `wap rules install <tarball>`
#   2. install the builtin `wordpress` starter pack by name;
#      `wap rules list` must show both with fingerprints
#   3. scan a tiny WordPress-flavored app without packs (baseline SARIF)
#   4. re-scan with `--rules acme --rules wordpress`: jq must find both
#      packs' rule ids firing and the pack name in rule properties
#   5. remove the packs: `--rules acme` must now fail naming the pack,
#      and a plain re-scan must be byte-identical to the baseline
#
# Requires: tar, jq, and target/release/wap (built by the caller).
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BIN="$ROOT/target/release/wap"
WORK="$(mktemp -d)"

cleanup() { rm -rf "$WORK"; }
trap cleanup EXIT

fail() {
    echo "rules-smoke: FAIL: $*" >&2
    exit 1
}

[[ -x "$BIN" ]] || { echo "rules-smoke: build target/release/wap first" >&2; exit 1; }

RULES_DIR="$WORK/rules"

# A tiny WordPress-flavored app with one taint candidate ($_GET reaching
# $wpdb->query) plus defects only pack rules see (interpolated queries,
# extract over request data); the analysis is deterministic, so the
# baseline SARIF bytes are reproducible for the uninstall comparison.
mkdir -p "$WORK/app"
cat > "$WORK/app/plugin.php" <<'PHP'
<?php
function lookup_post($wpdb) {
    $id = $_GET['id'];
    $wpdb->query("SELECT * FROM wp_posts WHERE ID = $id");
    return $wpdb->get_results("SELECT meta_value FROM wp_postmeta WHERE post_id = $id");
}
extract($_GET);
PHP

# --- author + install a custom pack from a tarball -------------------------
mkdir -p "$WORK/pack"
cat > "$WORK/pack/pack.json" <<'JSON'
{
  "schema": 1,
  "name": "acme",
  "version": "1.0.0",
  "rules": [
    {
      "id": "acme-interpolated-query",
      "kind": "call_with_arg",
      "function": "query",
      "argument": "\"[^\"]*\\$\\w",
      "severity": "error",
      "message": "query built from an interpolated string"
    }
  ]
}
JSON
tar --format=ustar -C "$WORK/pack" -cf "$WORK/acme-pack.tar" pack.json

"$BIN" rules install "$WORK/acme-pack.tar" --rules-dir "$RULES_DIR" \
    | grep -q "installed acme@1.0.0 (1 rules" || fail "tarball install failed"
"$BIN" rules install wordpress --rules-dir "$RULES_DIR" \
    | grep -q "installed wordpress@1.0.0 (3 rules" || fail "starter install failed"

LISTED="$("$BIN" rules list --rules-dir "$RULES_DIR")"
grep -q "acme@1.0.0 rules=1 kinds=call_with_arg fingerprint=" <<< "$LISTED" \
    || fail "list missing acme: $LISTED"
grep -q "wordpress@1.0.0 rules=3 kinds=call_with_arg,pattern fingerprint=" <<< "$LISTED" \
    || fail "list missing wordpress: $LISTED"
echo "rules-smoke: install + list OK"

# --- baseline scan: no packs ----------------------------------------------
"$BIN" --format sarif --fail-on none "$WORK/app" > "$WORK/baseline.sarif" \
    || fail "baseline scan failed"
jq -e '[.runs[0].tool.driver.rules[].id] | index("WAP-ACME-INTERPOLATED-QUERY") == null' \
    "$WORK/baseline.sarif" > /dev/null || fail "baseline must not know pack rules"

# --- pack scan: both packs' rules fire, tagged with their pack -------------
"$BIN" --rules acme --rules wordpress --rules-dir "$RULES_DIR" \
    --format sarif --fail-on none "$WORK/app" > "$WORK/packs.sarif" \
    || fail "pack scan failed"
jq -e -f "$ROOT/scripts/sarif_assert.jq" "$WORK/packs.sarif" > /dev/null \
    || fail "pack SARIF failed shape assertions"
for rule in WAP-ACME-INTERPOLATED-QUERY WAP-WP-WPDB-INTERPOLATED-GET-RESULTS \
            WAP-WP-UNVALIDATED-EXTRACT; do
    jq -e --arg r "$rule" '[.runs[0].results[].ruleId] | index($r) != null' \
        "$WORK/packs.sarif" > /dev/null || fail "pack rule $rule did not fire"
done
jq -e '.runs[0].tool.driver.rules[]
       | select(.id == "WAP-ACME-INTERPOLATED-QUERY")
       | .properties.pack == "acme"' "$WORK/packs.sarif" > /dev/null \
    || fail "acme rule not tagged with its pack"
jq -e '.runs[0].tool.driver.rules[]
       | select(.id == "WAP-WP-UNVALIDATED-EXTRACT")
       | .properties.pack == "wordpress"' "$WORK/packs.sarif" > /dev/null \
    || fail "wordpress rule not tagged with its pack"
echo "rules-smoke: pack scan fired and tagged all pack rules"

# --- uninstall: unknown pack refused, baseline restored byte-for-byte ------
"$BIN" rules remove acme --rules-dir "$RULES_DIR" > /dev/null \
    || fail "remove acme failed"
"$BIN" rules remove wordpress --rules-dir "$RULES_DIR" > /dev/null \
    || fail "remove wordpress failed"
if "$BIN" --rules acme --rules-dir "$RULES_DIR" --format sarif --fail-on none \
    "$WORK/app" > /dev/null 2> "$WORK/err.txt"; then
    fail "--rules with an uninstalled pack must fail"
fi
grep -q "acme" "$WORK/err.txt" || fail "error must name the pack: $(cat "$WORK/err.txt")"

"$BIN" --format sarif --fail-on none "$WORK/app" > "$WORK/after.sarif" \
    || fail "post-remove scan failed"
cmp "$WORK/baseline.sarif" "$WORK/after.sarif" \
    || fail "uninstall did not restore the baseline bytes"
echo "rules-smoke: uninstall restored byte-identical baseline"

echo "rules-smoke: PASS"
