#!/bin/sh
# connect_smoke.sh — the thin client against a real verifyd socket.
#
#   scripts/connect_smoke.sh path/to/verifyd path/to/verify_tool
#
# Starts `verifyd --socket` on a workspace and runs `verify_tool
# --connect` against it: the client must exit 1 on examples/demo.c plus a
# file whose only function fails, and 0 on examples/demo.c alone. The
# daemon, stopped with SIGTERM, must exit with the same verdict.
set -u

VERIFYD=${1:?usage: connect_smoke.sh <verifyd> <verify_tool>}
TOOL=${2:?usage: connect_smoke.sh <verifyd> <verify_tool>}
DEMO="$(cd "$(dirname "$0")/.." && pwd)/examples/demo.c"
WORK=$(mktemp -d "${TMPDIR:-/tmp}/rcc_connect_smoke.XXXXXX") || exit 1
DPID=
trap '[ -n "$DPID" ] && kill "$DPID" 2>/dev/null; rm -rf "$WORK"' EXIT INT TERM

fail() {
  echo "connect_smoke: FAIL: $1" >&2
  [ -f "$WORK/client.out" ] && cat "$WORK/client.out" >&2
  exit 1
}

# A function whose spec cannot hold: returns claims x+1 but body returns x.
cat > "$WORK/bad.c" <<'EOF'
[[rc::parameters("n: nat")]]
[[rc::args("n @ int<u32>")]]
[[rc::returns("{n + 1} @ int<u32>")]]
[[rc::requires("{n <= 100}")]]
unsigned int inc(unsigned int x) { return x; }
EOF

# expect CODE FILE...: serves FILE... and checks both exit codes.
expect() {
  want=$1
  shift
  rm -f "$WORK/d.sock" "$WORK/log"
  "$VERIFYD" --socket="$WORK/d.sock" "$@" > "$WORK/log" &
  DPID=$!
  # The socket listens before the cold start, whose first event marks
  # the daemon ready.
  for _ in $(seq 1 100); do
    [ -s "$WORK/log" ] && break
    sleep 0.1
  done
  got=0
  "$TOOL" --connect="$WORK/d.sock" > "$WORK/client.out" || got=$?
  kill "$DPID"
  dgot=0
  wait "$DPID" || dgot=$?
  DPID=
  [ "$got" -eq "$want" ] ||
    fail "verify_tool --connect exited $got, want $want, on $*"
  [ "$dgot" -eq "$want" ] || fail "verifyd exited $dgot, want $want, on $*"
}

expect 1 "$DEMO" "$WORK/bad.c"
expect 0 "$DEMO"
echo "connect_smoke: ok"
