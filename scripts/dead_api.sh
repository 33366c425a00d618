#!/bin/sh
# Fails when libmcd defines an out-of-line function that no production
# binary reaches, unless the allowlist below names it.
#
# Builds the main tree (mcd_cli, the bench binaries and the examples;
# no tests) and the perfbench package into throw-away directories, at
# -O0 -fno-inline with one section per function, and links with
# --gc-sections, so a binary keeps exactly the functions it can reach.
# Every `T` symbol of libmcd.a that no binary defines is unreached.
# Header-inline functions are weak symbols and are not audited.
#
# An allowlisted function must still be defined and still unreached,
# so the list cannot outlive what it names.
#
#   scripts/dead_api.sh
set -eu
export LC_ALL=C

root=$(cd "$(dirname "$0")/.." && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
jobs=$(nproc 2>/dev/null || echo 2)

# One line per function: its demangled signature, then ` # ` and why it
# stays although no production binary calls it.
cat > "$work/allow" <<'EOF'
mcd::Simulator::checkScheduler[abi:cxx11]() const # contract hook: the scheduler-consistency check core_test runs, also after a checkpoint restore
mcd::Simulator::checkWakeMemos[abi:cxx11]() const # contract hook: checkScheduler's wake-memo half
mcd::ArtifactCache::inflightEntries() const # contract hook: the in-flight dedup table drains, checked by the cache tests
mcd::TraceWorkload::TraceWorkload(std::__cxx11::basic_string<char, std::char_traits<char>, std::allocator<char> >, std::vector<mcd::MicroOp, std::allocator<mcd::MicroOp> >) # test fixture: replays the golden aliasing traces
mcd::TraceWorkload::next() # test fixture: replays the golden aliasing traces
mcd::TraceWorkload::saveState(std::__cxx11::basic_string<char, std::char_traits<char>, std::allocator<char> >&) const # test fixture: checkpoints of a replayed trace
mcd::TraceWorkload::loadState(mcd::serial::Reader&) # test fixture: checkpoints of a replayed trace
mcd::CheckpointSpec::build(mcd::ArtifactCache&) const # contract hook: a standalone checkpoint build, which a run must restore bit-identically
mcd::ArtifactCache::detachDiskStore() # test fixture: isolates the process-wide cache between tests
mcd::ConstantController::ConstantController(std::array<double, 3ul> const&) # test fixture: the mixed-frequency GALS machine
mcd::AttackDecayController::internalFrequency(int) const # test oracle: the Attack/Decay tests read the unquantized target
mcd::Cache::missRate() const # observes the model: cache tests check miss ratios
mcd::PowerAccountant::structureEnergy(mcd::StructureId) const # observes the model: power tests check per-structure energy
mcd::PowerAccountant::domainBaseEnergy(mcd::DomainId) const # observes the model: power tests check clock-tree energy
mcd::DvfsModel::pointIndex(double) const # test oracle: clock tests check the operating-point grid
mcd::DvfsModel::slewTime(double, double) const # test oracle: clock tests check transition times
EOF

build() {
    src=$1 dir=$2
    shift 2
    cmake -S "$src" -B "$dir" -DCMAKE_BUILD_TYPE=None \
        -DCMAKE_CXX_FLAGS="-O0 -fno-inline -ffunction-sections -fdata-sections" \
        -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" "$@" > "$dir.log" 2>&1 &&
    cmake --build "$dir" -j "$jobs" >> "$dir.log" 2>&1 || {
        cat "$dir.log"
        echo "dead_api: building $src failed"
        exit 1
    }
}
build "$root" "$work/main" -DMCD_BUILD_TESTS=OFF
build "$root/perfbench" "$work/perf"

# Demangled names of the functions defined in the given object files
# whose nm type matches $1.
defined() {
    types=$1
    shift
    nm -C --defined-only "$@" | awk -v t="$types" '$2 ~ t' |
        cut -d' ' -f3- | sort -u
}
defined '^T$' "$work/main/libmcd.a" > "$work/lib"
find "$work/main" -maxdepth 1 -type f -perm -u+x > "$work/bins"
echo "$work/perf/mcd_perfbench" >> "$work/bins"
# shellcheck disable=SC2046
defined '^[TtWw]$' $(cat "$work/bins") > "$work/reached"
sed 's/ # .*//' "$work/allow" | sort -u > "$work/allowed"

comm -23 "$work/lib" "$work/reached" > "$work/unreached"
comm -23 "$work/unreached" "$work/allowed" > "$work/dead"
comm -23 "$work/allowed" "$work/unreached" > "$work/stale"

echo "dead_api: $(wc -l < "$work/lib") library functions," \
     "$(wc -l < "$work/unreached") unreached by" \
     "$(wc -l < "$work/bins") binaries, $(wc -l < "$work/allowed") allowlisted"
status=0
if grep -v ' # ' "$work/allow"; then
    echo "allowlist entries above give no reason"
    status=1
fi
if [ -s "$work/dead" ]; then
    echo "unreached and not allowlisted (delete, or allowlist with a reason):"
    sed 's/^/  /' "$work/dead"
    status=1
fi
if [ -s "$work/stale" ]; then
    echo "allowlisted but no longer defined, or now reached (drop the entry):"
    sed 's/^/  /' "$work/stale"
    status=1
fi
exit $status
