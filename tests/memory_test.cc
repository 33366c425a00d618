/**
 * @file
 * Unit and property tests for the memory substrate: set-associative
 * cache behavior (hits, LRU, writebacks), the Table 4 hierarchy, and
 * the main-memory channel model.
 */

#include <gtest/gtest.h>

#include "memory/cache.hh"
#include "memory/memory_hierarchy.hh"

namespace mcd
{
namespace
{

CacheConfig
smallCache(int size_kb = 4, int assoc = 2, int line = 64)
{
    CacheConfig config;
    config.name = "test";
    config.sizeBytes = static_cast<std::uint64_t>(size_kb) * 1024;
    config.associativity = assoc;
    config.lineBytes = line;
    return config;
}

TEST(Cache, MissThenHit)
{
    Cache cache(smallCache());
    EXPECT_FALSE(cache.access(0x1000, false).hit);
    EXPECT_TRUE(cache.access(0x1000, false).hit);
    EXPECT_EQ(cache.hits().value(), 1u);
    EXPECT_EQ(cache.misses().value(), 1u);
}

TEST(Cache, SameLineDifferentOffsetHits)
{
    Cache cache(smallCache());
    cache.access(0x1000, false);
    EXPECT_TRUE(cache.access(0x103f, false).hit);
    EXPECT_FALSE(cache.access(0x1040, false).hit); // next line
}

TEST(Cache, GeometryNumSets)
{
    Cache cache(smallCache(4, 2, 64));
    EXPECT_EQ(cache.numSets(), 4 * 1024 / 64 / 2);
}

TEST(Cache, LruEvictsOldest)
{
    // 2-way cache: three lines mapping to the same set evict the LRU.
    Cache cache(smallCache(4, 2, 64));
    std::uint64_t set_stride =
        static_cast<std::uint64_t>(cache.numSets()) * 64;
    cache.access(0x0, false);
    cache.access(set_stride, false);
    cache.access(0x0, false); // touch line 0: set_stride becomes LRU
    cache.access(2 * set_stride, false); // evicts set_stride
    EXPECT_TRUE(cache.probe(0x0));
    EXPECT_FALSE(cache.probe(set_stride));
    EXPECT_TRUE(cache.probe(2 * set_stride));
}

TEST(Cache, DirtyEvictionReportsWriteback)
{
    Cache cache(smallCache(4, 2, 64));
    std::uint64_t set_stride =
        static_cast<std::uint64_t>(cache.numSets()) * 64;
    cache.access(0x0, true); // dirty
    cache.access(set_stride, false);
    CacheAccessResult result = cache.access(2 * set_stride, false);
    EXPECT_TRUE(result.writeback);
    EXPECT_EQ(result.victimAddr, 0u);
    EXPECT_EQ(cache.writebacks().value(), 1u);
}

TEST(Cache, CleanEvictionHasNoWriteback)
{
    Cache cache(smallCache(4, 2, 64));
    std::uint64_t set_stride =
        static_cast<std::uint64_t>(cache.numSets()) * 64;
    cache.access(0x0, false);
    cache.access(set_stride, false);
    CacheAccessResult result = cache.access(2 * set_stride, false);
    EXPECT_FALSE(result.writeback);
}

TEST(Cache, WriteHitMarksDirty)
{
    Cache cache(smallCache(4, 2, 64));
    std::uint64_t set_stride =
        static_cast<std::uint64_t>(cache.numSets()) * 64;
    cache.access(0x0, false); // clean fill
    cache.access(0x0, true);  // dirty it
    cache.access(set_stride, false);
    CacheAccessResult result = cache.access(2 * set_stride, false);
    EXPECT_TRUE(result.writeback);
}

TEST(Cache, ProbeDoesNotMutate)
{
    Cache cache(smallCache());
    cache.access(0x1000, false);
    std::uint64_t hits = cache.hits().value();
    EXPECT_TRUE(cache.probe(0x1000));
    EXPECT_FALSE(cache.probe(0x2000));
    EXPECT_EQ(cache.hits().value(), hits);
    EXPECT_EQ(cache.misses().value(), 1u);
}

TEST(Cache, DirectMappedConflicts)
{
    Cache cache(smallCache(4, 1, 64));
    std::uint64_t set_stride =
        static_cast<std::uint64_t>(cache.numSets()) * 64;
    cache.access(0x0, false);
    cache.access(set_stride, false); // evicts 0x0 immediately
    EXPECT_FALSE(cache.probe(0x0));
}

TEST(Cache, MissRate)
{
    Cache cache(smallCache());
    cache.access(0x0, false);
    cache.access(0x0, false);
    cache.access(0x0, false);
    cache.access(0x40, false);
    EXPECT_DOUBLE_EQ(cache.missRate(), 0.5);
}

TEST(Cache, LineAddrMasksOffset)
{
    Cache cache(smallCache());
    EXPECT_EQ(cache.lineAddr(0x1234), 0x1200u);
}

struct CacheGeometry
{
    int sizeKb;
    int assoc;
    int line;
};

class CacheGeometryProperty
    : public ::testing::TestWithParam<CacheGeometry>
{
};

TEST_P(CacheGeometryProperty, WorkingSetSmallerThanCacheAlwaysHits)
{
    auto geometry = GetParam();
    Cache cache(smallCache(geometry.sizeKb, geometry.assoc,
                           geometry.line));
    std::uint64_t lines =
        static_cast<std::uint64_t>(geometry.sizeKb) * 1024 /
        static_cast<std::uint64_t>(geometry.line);
    // Touch half the cache capacity, twice. Second pass must all hit.
    for (std::uint64_t i = 0; i < lines / 2; ++i)
        cache.access(i * static_cast<std::uint64_t>(geometry.line),
                     false);
    for (std::uint64_t i = 0; i < lines / 2; ++i) {
        EXPECT_TRUE(
            cache
                .access(i * static_cast<std::uint64_t>(geometry.line),
                        false)
                .hit);
    }
}

TEST_P(CacheGeometryProperty, WorkingSetLargerThanCacheMisses)
{
    auto geometry = GetParam();
    Cache cache(smallCache(geometry.sizeKb, geometry.assoc,
                           geometry.line));
    std::uint64_t lines =
        static_cast<std::uint64_t>(geometry.sizeKb) * 1024 /
        static_cast<std::uint64_t>(geometry.line);
    // A cyclic sweep over 4x capacity with LRU should keep missing.
    for (int pass = 0; pass < 3; ++pass) {
        for (std::uint64_t i = 0; i < lines * 4; ++i)
            cache.access(i * static_cast<std::uint64_t>(geometry.line),
                         false);
    }
    EXPECT_GT(cache.missRate(), 0.9);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometryProperty,
    ::testing::Values(CacheGeometry{4, 1, 64}, CacheGeometry{4, 2, 64},
                      CacheGeometry{8, 4, 64}, CacheGeometry{8, 2, 32},
                      CacheGeometry{16, 8, 128}));

TEST(MainMemory, FixedLatency)
{
    MainMemory memory;
    Tick done = memory.schedule(1000);
    EXPECT_EQ(done, 1000 + 80 * TICKS_PER_NS);
}

TEST(MainMemory, ChannelSerializesTransfers)
{
    MainMemoryConfig config;
    config.accessLatency = 80 * TICKS_PER_NS;
    config.channelOccupancy = 10 * TICKS_PER_NS;
    MainMemory memory(config);
    Tick first = memory.schedule(0);
    Tick second = memory.schedule(0); // queues behind the first
    EXPECT_EQ(first, 80 * TICKS_PER_NS);
    EXPECT_EQ(second, 10 * TICKS_PER_NS + 80 * TICKS_PER_NS);
    EXPECT_EQ(memory.transfers(), 2u);
    EXPECT_EQ(memory.queueingTime(), 10 * TICKS_PER_NS);
}

TEST(MainMemory, IdleChannelAddsNoQueueing)
{
    MainMemory memory;
    memory.schedule(0);
    Tick done = memory.schedule(1000 * TICKS_PER_NS);
    EXPECT_EQ(done, 1000 * TICKS_PER_NS + 80 * TICKS_PER_NS);
}

TEST(Hierarchy, Table4Defaults)
{
    MemoryHierarchy memory;
    EXPECT_EQ(memory.l1i().config().sizeBytes, 64u * 1024);
    EXPECT_EQ(memory.l1i().config().associativity, 2);
    EXPECT_EQ(memory.l1d().config().sizeBytes, 64u * 1024);
    EXPECT_EQ(memory.l2().config().sizeBytes, 1024u * 1024);
    EXPECT_EQ(memory.l2().config().associativity, 1);
    EXPECT_EQ(memory.config().l1Latency, 2);
    EXPECT_EQ(memory.config().l2Latency, 12);
}

TEST(Hierarchy, FirstTouchGoesToMemory)
{
    MemoryHierarchy memory;
    MemAccessOutcome outcome = memory.accessData(0x10000, false);
    EXPECT_EQ(outcome.level, MemLevel::Memory);
    EXPECT_GE(outcome.memAccesses, 1);
}

TEST(Hierarchy, SecondTouchHitsL1)
{
    MemoryHierarchy memory;
    memory.accessData(0x10000, false);
    MemAccessOutcome outcome = memory.accessData(0x10000, false);
    EXPECT_EQ(outcome.level, MemLevel::L1);
    EXPECT_EQ(outcome.l2Accesses, 0);
}

TEST(Hierarchy, L1VictimStillInL2)
{
    MemoryHierarchy memory;
    memory.accessData(0x10000, false);
    // Evict 0x10000 from L1 by filling its set (2 ways).
    std::uint64_t set_stride = 64u * 1024 / 2;
    memory.accessData(0x10000 + set_stride, false);
    memory.accessData(0x10000 + 2 * set_stride, false);
    ASSERT_FALSE(memory.l1d().probe(0x10000));
    MemAccessOutcome outcome = memory.accessData(0x10000, false);
    EXPECT_EQ(outcome.level, MemLevel::L2);
}

TEST(Hierarchy, DirtyL1VictimWritesIntoL2)
{
    MemoryHierarchy memory;
    memory.accessData(0x10000, true); // dirty in L1
    std::uint64_t set_stride = 64u * 1024 / 2;
    std::uint64_t l2_before = memory.l2().hits().value() +
                              memory.l2().misses().value();
    memory.accessData(0x10000 + set_stride, false);
    MemAccessOutcome outcome =
        memory.accessData(0x10000 + 2 * set_stride, false);
    // The eviction of dirty 0x10000 must have accessed L2 as a write.
    EXPECT_GE(outcome.l2Accesses, 1);
    EXPECT_GT(memory.l2().hits().value() + memory.l2().misses().value(),
              l2_before);
}

TEST(Hierarchy, InstructionSideIsIndependentOfDataSide)
{
    MemoryHierarchy memory;
    memory.accessData(0x40000, false);
    MemAccessOutcome outcome = memory.accessInst(0x40000);
    // Same address misses in L1I even though L1D holds it, but hits in
    // the unified L2.
    EXPECT_EQ(outcome.level, MemLevel::L2);
}

TEST(Hierarchy, InstFetchHitsAfterFill)
{
    MemoryHierarchy memory;
    memory.accessInst(0x1000);
    EXPECT_EQ(memory.accessInst(0x1000).level, MemLevel::L1);
    EXPECT_EQ(memory.accessInst(0x1004).level, MemLevel::L1);
}

TEST(Hierarchy, WorkingSetLargerThanL2ThrashesToMemory)
{
    MemoryHierarchy memory;
    // Stream 4 MB twice: far beyond the 1 MB direct-mapped L2.
    const std::uint64_t span = 4u * 1024 * 1024;
    for (int pass = 0; pass < 2; ++pass) {
        for (std::uint64_t a = 0; a < span; a += 64)
            memory.accessData(0x100000 + a, false);
    }
    EXPECT_GT(memory.l2().missRate(), 0.9);
}

} // namespace
} // namespace mcd
