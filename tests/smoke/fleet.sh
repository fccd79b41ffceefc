#!/usr/bin/env bash
# Fleet smoke (ctest smoke_fleet_daemon): a coordinator and two
# loopback workers.
#
#   fleet.sh WORKDIR PITON_SERVED PITON_FLEETCTL
#
# `sweep --verify` compares every fleet response byte-for-byte against
# an in-process single-node reference; that comparison (exit status)
# is the gate, including while one worker is SIGKILLed mid-sweep and
# its requests fail over.
source "$(dirname "$0")/lib.sh"
smoke_workdir "$1"
served=$2
ctl=$3

start_served "$served" worker_a.log --threads 1 --worker-id fleet-a
worker_a=$SERVED_PID
port_a=$SERVED_PORT
start_served "$served" worker_b.log --threads 1 --worker-id fleet-b
worker_b=$SERVED_PID
workers=$port_a,$SERVED_PORT
"$ctl" --workers "$workers" ping
"$ctl" --workers "$workers" sweep --points 12 --verify
"$ctl" --workers "$workers" stats
# Repeats route to the same owner and hit its cache; the bytes must
# not change between repeats.
"$ctl" --workers "$workers" run fig9 --repeat 2 --expect-identical
# Crash a worker mid-sweep (SIGKILL: no graceful drain, no shed
# replies).  The sweep must still verify byte-identical: the dead
# worker's requests re-route to the survivor.
"$ctl" --workers "$workers" sweep --points 16 --verify &
sweep_pid=$!
sleep 2
kill -9 "$worker_b"
wait "$sweep_pid"
wait "$worker_b" || true
"$ctl" --workers "$port_a" shutdown
wait "$worker_a"
