#!/usr/bin/env bash
# Prints the three line counts ROADMAP quotes for the size of the code:
# non-test Go, *_test.go Go, and amd64 assembly. All three leave out the
# benchmark module (bench/) and its build directory (.bench_build/).
#
# Usage: scripts/size.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# count FIND_ARGS... prints the total lines of the matching files.
count() {
	find . \( -path ./bench -o -path ./.bench_build -o -path ./.git \) -prune -o \
		-type f "$@" -print0 | xargs -0 cat | wc -l
}

printf 'non-test Go     %6d\n' "$(count -name '*.go' ! -name '*_test.go')"
printf 'test Go         %6d\n' "$(count -name '*_test.go')"
printf 'amd64 assembly  %6d\n' "$(count -name '*_amd64.s')"
