#!/usr/bin/env bash
# Static analysis: bearlint (the project-rule analyzer, always) plus
# clang-tidy (config: .clang-tidy) over the simulator sources using
# the compile database from the build tree.
#
#   tools/lint.sh [build-dir]
#
# The build dir defaults to ./build and must have been configured
# (CMAKE_EXPORT_COMPILE_COMMANDS is always on, see CMakeLists.txt).
# bearlint is self-contained and runs on every toolchain; any
# diagnostic fails the lint run.  The clang-tidy half is skipped with
# a notice when clang-tidy is not installed so that tools/ci.sh stays
# runnable on toolchains without clang.
set -euo pipefail

cd "$(dirname "$0")/.."
build_dir="${1:-build}"

status=0

# bearlint first: it needs no compile database, only the built binary.
bearlint="${build_dir}/tools/bearlint"
if [[ ! -x "${bearlint}" ]]; then
    cmake --build "${build_dir}" --target bearlint >/dev/null
fi
echo "== bearlint"
"${bearlint}" --root . || status=1

# Self-sufficiency probe (the compiled half of bearlint's BL005): every
# header must build as its own translation unit, so include order in
# consumers can never hide a missing include.
echo "== header self-sufficiency"
while IFS= read -r header; do
    if ! "${CXX:-c++}" -fsyntax-only -x c++ -std=c++20 -Isrc \
            "${header}"; then
        echo "lint.sh: ${header} is not self-sufficient" >&2
        status=1
    fi
done < <(find src -name '*.hh' | sort)

if ! command -v clang-tidy >/dev/null 2>&1; then
    echo "lint.sh: clang-tidy not found; skipping clang-tidy" >&2
    exit "${status}"
fi

if [[ ! -f "${build_dir}/compile_commands.json" ]]; then
    echo "lint.sh: ${build_dir}/compile_commands.json missing;" \
         "configure the build first (cmake -B ${build_dir} -S .)" >&2
    exit 1
fi

# Header-only modules (src/obs, sim/job_control.hh) never appear in
# the compile database, so lint them as standalone translation units
# first; src/trace and the journal header (sim/journal.hh) ride along
# so their inline code is covered even when the database misses a
# consumer.
for header in src/obs/*.hh src/trace/*.hh src/sim/job_control.hh \
              src/sim/journal.hh src/common/sync.hh; do
    echo "== clang-tidy ${header}"
    clang-tidy --quiet "${header}" -- -xc++ -std=c++20 -Isrc \
        || status=1
done

# run-clang-tidy parallelises across the database when available.
if command -v run-clang-tidy >/dev/null 2>&1; then
    run-clang-tidy -p "${build_dir}" -quiet "src/.*\.cc$" || status=1
    exit "${status}"
fi

while IFS= read -r file; do
    echo "== clang-tidy ${file}"
    clang-tidy -p "${build_dir}" --quiet "${file}" || status=1
done < <(find src -name '*.cc' | sort)
exit "${status}"
