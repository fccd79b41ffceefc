# Helpers sourced by the smoke scripts in this directory.  Not a test
# on its own.
#
# Every background job a script starts (piton-served workers, and any
# client still running when a step fails) is SIGKILLed and reaped on
# exit, so a failing gate never leaves a daemon behind.
set -euo pipefail

smoke_cleanup() {
    local pids
    pids=$(jobs -p)
    if [ -n "$pids" ]; then
        # shellcheck disable=SC2086
        kill -9 $pids 2>/dev/null || true
        wait 2>/dev/null || true
    fi
}
trap smoke_cleanup EXIT
trap 'exit 1' INT TERM

# smoke_workdir DIR: start from an empty DIR and cd into it.
smoke_workdir() {
    rm -rf "$1"
    mkdir -p "$1"
    cd "$1"
}

# start_served SERVED LOG ARGS...: run `SERVED --port 0 ARGS` in the
# background with stdout in LOG and wait for its scripting handshake
# ("piton-served port N").  Sets SERVED_PID and SERVED_PORT.  The
# kernel picks the port, so parallel tests never collide.
start_served() {
    local served=$1 log=$2
    shift 2
    : > "$log"
    "$served" --port 0 "$@" > "$log" &
    SERVED_PID=$!
    for _ in $(seq 600); do
        SERVED_PORT=$(sed -n 's/^piton-served port \([0-9]*\)$/\1/p' "$log")
        if [ -n "$SERVED_PORT" ]; then
            return 0
        fi
        if ! kill -0 "$SERVED_PID" 2>/dev/null; then
            echo "piton-served exited before its handshake" >&2
            return 1
        fi
        sleep 0.1
    done
    echo "piton-served sent no handshake within 60 s" >&2
    return 1
}
