#!/usr/bin/env bash
# Experiment-service smoke (ctest smoke_service_daemon).
#
#   service.sh WORKDIR PITON_SERVED PITON_SERVECTL
#
# The daemon runs for the whole exchange; under a sanitizer build any
# finding aborts it (-fno-sanitize-recover), which fails the final
# `wait`.  The burst covers: liveness (ping), deadline expiry of a
# queued request, cold/warm byte-identity (--expect-identical), a
# warm-started sweep, stats, and graceful shutdown.
source "$(dirname "$0")/lib.sh"
smoke_workdir "$1"
served=$2
ctl=$3

start_served "$served" served.log --threads 1
server_pid=$SERVED_PID
port=$SERVED_PORT
"$ctl" --port "$port" ping
# Deadline expiry: occupy the single worker with a long cold run
# (~8 s without sanitizers, longer under them), then queue a request
# with a 100 ms deadline behind it.  It must come back
# deadline-expired (exit 1), never late or partial.
"$ctl" --port "$port" run fig13 --samples 3000 > blocker.log 2>&1 &
blocker_pid=$!
# Wait until the scheduler has admitted the blocker (queue-depth 1:
# the single worker holds it), so the deadline request queues behind
# it however loaded the host is.
for _ in $(seq 600); do
    if "$ctl" --port "$port" stats | grep -q ' queue-depth 1$'; then
        break
    fi
    sleep 0.1
done
"$ctl" --port "$port" stats | grep -q ' queue-depth 1$'
if out=$("$ctl" --port "$port" run table5 --deadline-ms 100); then
    echo "expected deadline expiry, got:"; echo "$out"; exit 1
fi
echo "$out" | grep -q "deadline-expired"
wait "$blocker_pid"
# Cold/warm bursts: every repeat must be byte-identical to the first
# response and served from the cache (fig17 is the warm-started sweep
# path).
"$ctl" --port "$port" run table5 --samples 16 --repeat 3 --expect-identical
"$ctl" --port "$port" run fig17 --samples 4 --repeat 2 --expect-identical
"$ctl" --port "$port" run fig9 --repeat 2 --expect-identical
"$ctl" --port "$port" stats
"$ctl" --port "$port" shutdown
wait "$server_pid"
