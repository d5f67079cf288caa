#!/usr/bin/env bash
# Fused multiply-add guard: results must be byte-identical on every
# architecture, but the Go spec lets a compiler fuse x*y + z into one
# rounding, and Go does so on arm64, riscv64, ppc64le and loong64 (never
# on amd64, so no amd64 run can notice). This cross-compiles every cmd/*
# for arm64 and riscv64, disassembles each binary with `go tool objdump`
# and fails on any fused multiply-add (FMADDD, FMSUBD, FNMADDD, FNMSUBD)
# inside a function of this module (repro/...). The cure is an explicit
# float64(...) around the product, which the spec says rounds it.
#
# Usage: bash scripts/arch-check.sh   (make arch-check; ≈ 1.5 s per binary
# with a warm build cache)
set -euo pipefail

GO=${GO:-go}
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

status=0
for arch in arm64 riscv64; do
	for cmd in cmd/*/; do
		name=$(basename "$cmd")
		bin="$out/$arch-$name"
		GOARCH=$arch "$GO" build -o "$bin" "./$cmd"
		fused=$("$GO" tool objdump "$bin" | awk '
			/^TEXT / { fn = $2 }
			fn ~ /^repro\// && /[[:space:]](FMADDD|FMSUBD|FNMADDD|FNMSUBD)[[:space:]]/ { print "  " fn " " $1 }' | sort -u)
		if [ -n "$fused" ]; then
			echo "arch-check: $arch $name fuses a multiply-add in:" >&2
			echo "$fused" >&2
			status=1
		fi
	done
done
if [ "$status" -ne 0 ]; then
	echo "arch-check: round the product with an explicit float64(...) so every target computes the bytes amd64 does" >&2
	exit 1
fi
echo "arch-check: no fused multiply-add in repro/ on arm64 or riscv64"
