#!/usr/bin/env bash
# Build the benchmark from source inside the checkout and run it with
# the arguments given (BENCHMARK.json's command). Everything the build
# writes stays under .bench_build: the Go build cache and temporary
# files and the go command's own config and telemetry directory are
# redirected there, so nothing outside the checkout is written.
#
# Telemetry is switched off in that private config directory before the
# go command runs: with a fresh directory the go command otherwise
# starts a detached sidecar (own session, not waited for) that outlives
# a build that fails fast, and a process would be left running.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config/go/telemetry"
echo off >"$build/config/go/telemetry/mode"
GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOENV=off \
	GOFLAGS=-buildvcs=false GOTOOLCHAIN=local \
	go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
