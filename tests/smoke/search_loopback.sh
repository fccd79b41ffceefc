#!/usr/bin/env bash
# Loopback optimization query (ctest smoke_search_loopback): the
# EXPERIMENTS.md "optimization queries" example end to end.  A worker
# daemon serves a minimize-epi query over TCP and the trajectory CSV
# lands on disk.
#
#   search_loopback.sh WORKDIR PITON_SERVED PITON_SERVECTL PITON_SEARCHCTL
source "$(dirname "$0")/lib.sh"
smoke_workdir "$1"
served=$2
servectl=$3
searchctl=$4

start_served "$served" served.log --threads 2
server_pid=$SERVED_PID
port=$SERVED_PORT
"$searchctl" minimize-epi --port "$port" \
    --engine sa --budget 18 --cores 3 \
    --explore-iterations 1 --out trajectory.csv
head -1 trajectory.csv | grep -q '^oracle_calls,best_score$'
[ "$(wc -l < trajectory.csv)" -gt 1 ]
"$servectl" --port "$port" shutdown
wait "$server_pid"
