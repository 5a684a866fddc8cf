#include "cache/spec_cache.hh"

#include <bit>
#include <new>

namespace tcc {

namespace {

bool
isPow2(std::uint32_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

} // namespace

SpecCache::SpecCache(const CacheConfig &cfg, Arena *arena)
    : config(cfg), keyBlocks(ArenaAllocator<KeyBlock>(arena)),
      poolAlloc(arena), setBlock(ArenaAllocator<std::uint32_t>(arena)),
      l1Tags(ArenaAllocator<L1Tag>(arena)),
      specSlots(ArenaAllocator<std::uint32_t>(arena))
{
    if (!isPow2(cfg.lineBytes) || cfg.lineBytes < 4)
        fatal("line size must be a power of two >= 4");
    lineWords = cfg.lineBytes / 4;
    lineShift = std::countr_zero(cfg.lineBytes);
    if (lineWords > 64)
        fatal("lines longer than 64 words are not supported");

    const std::uint32_t l2_lines = cfg.l2Bytes / cfg.lineBytes;
    if (l2_lines % cfg.l2Assoc != 0)
        fatal("L2 size/assoc mismatch");
    l2Sets = l2_lines / cfg.l2Assoc;
    if (!isPow2(l2Sets))
        fatal("L2 set count must be a power of two");
    assocPow2 = isPow2(cfg.l2Assoc);
    if (assocPow2)
        assocShift = std::countr_zero(cfg.l2Assoc);
    const std::size_t ways = static_cast<std::size_t>(l2Sets) * cfg.l2Assoc;
    keyBlocks.assign((ways + 7) / 8, KeyBlock{});

    const std::uint32_t l1_lines = cfg.l1Bytes / cfg.lineBytes;
    if (l1_lines % cfg.l1Assoc != 0)
        fatal("L1 size/assoc mismatch");
    l1Sets = l1_lines / cfg.l1Assoc;
    if (!isPow2(l1Sets))
        fatal("L1 set count must be a power of two");
    l1Tags.assign(static_cast<std::size_t>(l1Sets) * cfg.l1Assoc,
                  L1Tag{});

    // Raw storage only: fill() builds each Line before its first read.
    linePool = poolAlloc.allocate(ways);
    setBlock.assign(l2Sets, 0);
}

SpecCache::~SpecCache()
{
    // Lines are trivially destructible: releasing the storage is all.
    poolAlloc.deallocate(linePool,
                         static_cast<std::size_t>(l2Sets) * config.l2Assoc);
}

WordMask
SpecCache::maskFor(Addr a) const
{
    if (config.granularity == Granularity::Line)
        return fullMask();
    const std::uint32_t word =
        static_cast<std::uint32_t>((a & (config.lineBytes - 1)) / 4);
    return WordMask(1) << word;
}

std::uint32_t
SpecCache::setOf(Addr lineAddr) const
{
    return static_cast<std::uint32_t>(
        (lineAddr >> lineShift) & (l2Sets - 1));
}

std::uint32_t
SpecCache::findSlot(Addr lineAddr) const
{
    const std::uint32_t base = setOf(lineAddr) * config.l2Assoc;
    const Addr key = keyOf(lineAddr);
    for (std::uint32_t s = base; s < base + config.l2Assoc; ++s) {
        if (keyAt(s) == key)
            return s;
    }
    return kNoSlot;
}

const SpecCache::Line *
SpecCache::find(Addr lineAddr) const
{
    const std::uint32_t slot = findSlot(lineAddr);
    return slot == kNoSlot ? nullptr : &lineAt(slot);
}

bool
SpecCache::touchL1(Addr lineAddr)
{
    const std::uint32_t set = static_cast<std::uint32_t>(
        (lineAddr >> lineShift) & (l1Sets - 1));
    L1Tag *base = &l1Tags[static_cast<std::size_t>(set) * config.l1Assoc];
    std::uint32_t victim = 0;
    for (std::uint32_t w = 0; w < config.l1Assoc; ++w) {
        if (base[w].valid && base[w].tag == lineAddr) {
            base[w].lru = ++lruClock;
            return true;
        }
        if (!base[w].valid) {
            victim = w;
        } else if (base[victim].valid &&
                   base[w].lru < base[victim].lru) {
            victim = w;
        }
    }
    base[victim] = L1Tag{lineAddr, true, ++lruClock};
    return false;
}

void
SpecCache::dropL1(Addr lineAddr)
{
    const std::uint32_t set = static_cast<std::uint32_t>(
        (lineAddr >> lineShift) & (l1Sets - 1));
    L1Tag *base = &l1Tags[static_cast<std::size_t>(set) * config.l1Assoc];
    for (std::uint32_t w = 0; w < config.l1Assoc; ++w) {
        if (base[w].valid && base[w].tag == lineAddr)
            base[w].valid = false;
    }
}

void
SpecCache::noteSpec(Line &line, std::uint32_t slot)
{
    if (!line.inSpecList) {
        line.inSpecList = true;
        specSlots.push_back(slot);
    }
}

SpecCache::LoadOutcome
SpecCache::load(Addr addr)
{
    ++cacheStats.loads;
    const Addr la = lineAlign(addr);
    const WordMask m = maskFor(addr);

    const std::uint32_t slot = findSlot(la);
    if (slot == kNoSlot || (lineAt(slot).valid & m) != m) {
        ++cacheStats.misses;
        return LoadOutcome{false, 0};
    }
    Line *line = &lineAt(slot);

    // Reading a word this transaction already wrote is not a
    // dependence on other transactions; under word granularity we can
    // avoid the false conflict. Line granularity keeps the coarse bit.
    // Solo mode disables SR tracking entirely (the transaction cannot
    // be violated), keeping lines evictable.
    if (srTracking) {
        if (config.granularity == Granularity::Word)
            line->sr |= (m & ~line->sm);
        else
            line->sr |= m;
        noteSpec(*line, slot);
    }
    line->lru = ++lruClock;

    if (touchL1(la)) {
        ++cacheStats.l1Hits;
        return LoadOutcome{true, config.l1Latency};
    }
    ++cacheStats.l2Hits;
    return LoadOutcome{true, config.l2Latency};
}

SpecCache::StoreOutcome
SpecCache::store(Addr addr)
{
    ++cacheStats.stores;
    const Addr la = lineAlign(addr);
    const WordMask m = maskFor(addr);

    const std::uint32_t slot = findSlot(la);
    if (slot == kNoSlot) {
        ++cacheStats.misses;
        return StoreOutcome{false, false, 0};
    }
    Line *line = &lineAt(slot);

    StoreOutcome out;
    out.hit = true;
    // First speculative write to a line holding committed dirty data:
    // the old data must be written back to the non-speculative level
    // first (the caller sends the WriteBack message).
    if (line->dirty && line->sm == 0) {
        out.needsWriteBack = true;
        out.writeBackTid = line->commitTid;
        line->dirty = false;
    }
    line->sm |= m;
    line->valid |= m;
    line->lru = ++lruClock;
    noteSpec(*line, slot);

    if (touchL1(la)) {
        ++cacheStats.l1Hits;
        out.latency = config.l1Latency;
    } else {
        ++cacheStats.l2Hits;
        out.latency = config.l2Latency;
    }
    return out;
}

SpecCache::FillOutcome
SpecCache::fill(Addr addr)
{
    const Addr la = lineAlign(addr);
    FillOutcome out;

    const std::uint32_t slot = findSlot(la);
    if (slot != kNoSlot) {
        // Ghost or partially valid line: refresh the data words.
        Line &line = lineAt(slot);
        line.valid = fullMask();
        line.lru = ++lruClock;
        touchL1(la);
        ++cacheStats.fills;
        out.ok = true;
        return out;
    }

    const std::uint32_t set = setOf(la);
    const std::uint32_t base = set * config.l2Assoc;
    std::uint32_t victim = kNoSlot;
    for (std::uint32_t s = base; s < base + config.l2Assoc; ++s) {
        if (keyAt(s) == 0) {
            victim = s;
            break;
        }
        const Line &cand = lineAt(s);
        if (cand.sr != 0 || cand.sm != 0)
            continue; // speculative lines are not evictable
        if (victim == kNoSlot || cand.lru < lineAt(victim).lru)
            victim = s;
    }

    if (victim == kNoSlot) {
        ++cacheStats.overflows;
        out.overflow = true;
        return out;
    }

    if (keyAt(victim) != 0) {
        if (lineAt(victim).dirty) {
            out.evictedDirty = true;
            out.evictedAddr = tagAt(victim);
            out.evictedTid = lineAt(victim).commitTid;
            ++cacheStats.dirtyEvictions;
        }
        dropL1(tagAt(victim));
    }

    if (setBlock[set] == 0)
        setBlock[set] = ++blocksUsed; // first fill: hand out a block
    Line *line = ::new (&linePool[poolIndex(victim)]) Line{};
    keyAt(victim) = keyOf(la);
    line->valid = fullMask();
    line->lru = ++lruClock;
    touchL1(la);
    ++cacheStats.fills;
    out.ok = true;
    return out;
}

std::vector<SpecCache::WriteSetLine>
SpecCache::writeSet() const
{
    std::vector<WriteSetLine> ws;
    for (std::uint32_t slot : specSlots) {
        if (keyAt(slot) != 0 && lineAt(slot).sm != 0)
            ws.push_back(WriteSetLine{tagAt(slot), lineAt(slot).sm});
    }
    return ws;
}

std::uint32_t
SpecCache::readSetLines() const
{
    std::uint32_t n = 0;
    for (std::uint32_t slot : specSlots) {
        if (keyAt(slot) != 0 && lineAt(slot).sr != 0)
            ++n;
    }
    return n;
}

void
SpecCache::commitSpec(Tid tid, bool make_dirty)
{
    for (std::uint32_t slot : specSlots) {
        Line &line = lineAt(slot);
        line.inSpecList = false;
        if (keyAt(slot) == 0)
            continue;
        if (line.sm != 0 && make_dirty) {
            line.dirty = true; // now committed data; we are the owner
            line.commitTid = tid;
        }
        line.sr = 0;
        line.sm = 0;
        // Ghost lines (no valid words) with no remaining role free up.
        if (line.valid == 0 && !line.dirty)
            freeSlot(slot);
    }
    specSlots.clear();
}

void
SpecCache::abortSpec()
{
    for (std::uint32_t slot : specSlots) {
        Line &line = lineAt(slot);
        line.inSpecList = false;
        if (keyAt(slot) == 0)
            continue;
        // Speculatively written words never became real data.
        line.valid &= ~line.sm;
        line.sr = 0;
        line.sm = 0;
        if (line.valid == 0 && !line.dirty) {
            dropL1(tagAt(slot));
            freeSlot(slot);
        }
    }
    specSlots.clear();
}

SpecCache::InvOutcome
SpecCache::invalidate(Addr lineAddr, WordMask mask)
{
    InvOutcome out;
    const Addr la = lineAlign(lineAddr);
    const std::uint32_t slot = findSlot(la);
    if (slot == kNoSlot)
        return out;
    Line &line = lineAt(slot);

    out.srOverlap = (line.sr & mask) != 0;
    out.smOverlap = (line.sm & mask) != 0;

    // Drop the committed data, but keep (a) speculatively written words
    // - they are this transaction's own pending values - and (b) the
    // SR/SM bits as a ghost so later invalidations still see the read
    // set.
    line.valid &= line.sm;
    line.dirty = false;
    dropL1(la);
    if (line.sr == 0 && line.sm == 0) {
        freeSlot(slot);
    } else {
        ++cacheStats.ghostsCreated;
    }
    return out;
}

bool
SpecCache::flushLine(Addr lineAddr)
{
    const Addr la = lineAlign(lineAddr);
    const std::uint32_t slot = findSlot(la);
    if (slot == kNoSlot || !lineAt(slot).dirty)
        return false;
    Line &line = lineAt(slot);
    line.dirty = false;
    line.valid &= line.sm;
    dropL1(la);
    if (line.sr == 0 && line.sm == 0) {
        freeSlot(slot);
    } else {
        ++cacheStats.ghostsCreated;
    }
    return true;
}

bool
SpecCache::isDirty(Addr lineAddr) const
{
    const Line *line = find(lineAlign(lineAddr));
    return line && line->dirty;
}

bool
SpecCache::present(Addr lineAddr) const
{
    return findSlot(lineAlign(lineAddr)) != kNoSlot;
}

WordMask
SpecCache::srMask(Addr lineAddr) const
{
    const Line *line = find(lineAlign(lineAddr));
    return line ? line->sr : 0;
}

WordMask
SpecCache::smMask(Addr lineAddr) const
{
    const Line *line = find(lineAlign(lineAddr));
    return line ? line->sm : 0;
}

Tid
SpecCache::lineCommitTid(Addr lineAddr) const
{
    const Line *line = find(lineAlign(lineAddr));
    return line ? line->commitTid : kInvalidTid;
}

} // namespace tcc
