#include "workload/datastruct.hh"

#include <algorithm>

#include "common/log.hh"

namespace tcc {

const char *
dsStructureName(DsStructure s)
{
    switch (s) {
    case DsStructure::Map: return "map";
    case DsStructure::Set: return "set";
    case DsStructure::Queue: return "queue";
    case DsStructure::Bank: return "bank";
    }
    return "?";
}

const DsMix &
dsMixPreset(const std::string &name)
{
    static const std::vector<DsMix> presets = {
        {"read_mostly", 0.90, 0.05, 0.03, 0.02},
        {"mixed", 0.60, 0.20, 0.15, 0.05},
        {"write_heavy", 0.30, 0.35, 0.30, 0.05},
        {"update_only", 0.00, 0.50, 0.50, 0.00},
    };
    for (const auto &m : presets)
        if (m.name == name)
            return m;
    fatal("unknown op-mix preset '%s' (want read_mostly, mixed, "
          "write_heavy, or update_only)",
          name.c_str());
}

// ---------------------------------------------------------------------
// DsLayout
// ---------------------------------------------------------------------

DsLayout::DsLayout(const DataStructParams &params, std::uint64_t seed)
    : keys(params.numKeys),
      stride(params.structure == DsStructure::Map ? 2 : 1)
{
    if (keys == 0)
        fatal("data-structure workload needs at least one key");
    dists.reserve(params.phases.size());
    for (const auto &ph : params.phases)
        dists.emplace_back(keys, ph.theta);
    if (!params.scrambleKeys)
        return;
    // Seeded Fisher-Yates permutation: an exact bijection for any key
    // count (a multiplicative hash is only bijective for power-of-two
    // spaces), deterministic in the workload seed alone so every
    // processor agrees on the rank -> key mapping.
    perm.resize(keys);
    for (std::uint32_t i = 0; i < keys; ++i)
        perm[i] = i;
    Rng prng(seed ^ 0xD5D5'D5D5'D5D5'D5D5ull);
    for (std::uint32_t i = keys - 1; i > 0; --i) {
        const auto j =
            static_cast<std::uint32_t>(prng.below(i + 1));
        std::swap(perm[i], perm[j]);
    }
}

// ---------------------------------------------------------------------
// DataStructSource
// ---------------------------------------------------------------------

DataStructSource::DataStructSource(
    const DataStructParams &params,
    std::shared_ptr<const DsLayout> layout, std::uint64_t seed,
    NodeId proc, std::uint32_t num_procs)
    : prm(params), lay(std::move(layout)),
      rng(seed * 0x9e3779b97f4a7c15ull + proc + 1), nodeId(proc),
      numProcs(num_procs), dists(lay->phaseDists())
{
    if (prm.phases.empty())
        fatal("data-structure workload needs at least one phase");
    if (dists.size() != prm.phases.size())
        fatal("data-structure layout built for %zu phases, source has %zu",
              dists.size(), prm.phases.size());
    myTxns.reserve(prm.phases.size());
    tallies.resize(prm.phases.size());
    for (const auto &ph : prm.phases) {
        if (ph.txns < num_procs) {
            fatal("phase txns (%u) must be >= processors (%u) so "
                  "every source crosses every barrier boundary",
                  ph.txns, num_procs);
        }
        const std::uint32_t base = ph.txns / num_procs;
        const std::uint32_t extra =
            proc < (ph.txns % num_procs) ? 1 : 0;
        myTxns.push_back(base + extra);
    }
}

std::uint32_t
DataStructSource::drawKey(const DsPhase &ph)
{
    if (ph.flashKey >= 0 && rng.chance(ph.flashFrac))
        return static_cast<std::uint32_t>(ph.flashKey) %
               prm.numKeys;
    return lay->keyForRank(dists[phaseIdx].next(rng));
}

void
DataStructSource::emitMapSetOp(std::vector<TxOp> &ops,
                               const DsPhase &ph)
{
    const bool is_map = prm.structure == DsStructure::Map;
    const std::uint32_t key = drawKey(ph);
    const Addr hdr = lay->keyAddr(key);
    const double u = rng.uniform();
    const DsMix &mix = ph.mix;
    if (u < mix.insert) {
        // insert: mark present, (maps) publish a fresh value.
        ops.push_back(TxOp::load(hdr));
        ops.push_back(TxOp::store(hdr, 1));
        if (is_map)
            ops.push_back(TxOp::store(hdr + 4, rng.next()));
    } else if (u < mix.insert + mix.erase) {
        // erase: mark absent.
        ops.push_back(TxOp::load(hdr));
        ops.push_back(TxOp::store(hdr, 0));
    } else if (u < mix.insert + mix.erase + mix.scan) {
        // range scan: read scanLen consecutive headers (wrapping).
        for (std::uint32_t i = 0; i < prm.scanLen; ++i) {
            const std::uint32_t k = (key + i) % prm.numKeys;
            ops.push_back(TxOp::load(lay->keyAddr(k)));
        }
    } else {
        // lookup: header, and (maps) the value when present-agnostic.
        ops.push_back(TxOp::load(hdr));
        if (is_map)
            ops.push_back(TxOp::load(hdr + 4));
    }
}

void
DataStructSource::emitQueueOp(std::vector<TxOp> &ops,
                              const DsPhase &ph)
{
    const Addr head = DsLayout::ctrlBase();
    const Addr tail = DsLayout::ctrlBase() + 4;
    const double u = rng.uniform();
    const DsMix &mix = ph.mix;
    const std::uint32_t part =
        std::max<std::uint32_t>(1, prm.numKeys / numProcs);
    if (u < mix.insert) {
        // enqueue: bump the shared tail counter (the hot RMW every
        // producer fights over), then publish into my slot partition.
        const std::uint32_t slot = static_cast<std::uint32_t>(
            (nodeId * part + enqCount++ % part) % prm.numKeys);
        ops.push_back(TxOp::load(tail));
        ops.push_back(TxOp::storeAdd(tail, 1));
        ops.push_back(TxOp::store(lay->keyAddr(slot), rng.next()));
    } else if (u < mix.insert + mix.erase) {
        // dequeue: bump the shared head counter, consume a slot.
        const std::uint32_t slot = static_cast<std::uint32_t>(
            (deqCount++ * 7 + nodeId) % prm.numKeys);
        ops.push_back(TxOp::load(head));
        ops.push_back(TxOp::storeAdd(head, 1));
        ops.push_back(TxOp::load(lay->keyAddr(slot)));
    } else if (u < mix.insert + mix.erase + mix.scan) {
        // occupancy check: read both counters.
        ops.push_back(TxOp::load(head));
        ops.push_back(TxOp::load(tail));
    } else {
        // peek: head counter plus the slot it points at (modeled).
        const std::uint32_t slot = static_cast<std::uint32_t>(
            (deqCount * 7 + nodeId) % prm.numKeys);
        ops.push_back(TxOp::load(head));
        ops.push_back(TxOp::load(lay->keyAddr(slot)));
    }
}

void
DataStructSource::emitBankOp(std::vector<TxOp> &ops,
                             const DsPhase &ph)
{
    const DsMix &mix = ph.mix;
    const double u = rng.uniform();
    if (u < mix.insert + mix.erase) {
        // transfer: debit a, credit b; the two StoreAdds cancel, so
        // the total balance is conserved (wrap-exact in uint64) - an
        // end-to-end serializability witness the bench checks.
        const std::uint32_t a = drawKey(ph);
        std::uint32_t b = drawKey(ph);
        if (b == a)
            b = (a + 1) % prm.numKeys;
        const std::uint64_t amount = 1 + rng.below(64);
        ops.push_back(TxOp::load(lay->keyAddr(a)));
        ops.push_back(
            TxOp::storeAdd(lay->keyAddr(a), 0 - amount));
        ops.push_back(TxOp::load(lay->keyAddr(b)));
        ops.push_back(TxOp::storeAdd(lay->keyAddr(b), amount));
    } else {
        // audit: read a run of account balances.
        const std::uint32_t start = drawKey(ph);
        for (std::uint32_t i = 0; i < prm.scanLen; ++i) {
            const std::uint32_t k = (start + i) % prm.numKeys;
            ops.push_back(TxOp::load(lay->keyAddr(k)));
        }
    }
}

void
DataStructSource::emitOp(std::vector<TxOp> &ops, const DsPhase &ph)
{
    if (prm.computePerOp > 0)
        ops.push_back(TxOp::compute(prm.computePerOp));
    switch (prm.structure) {
    case DsStructure::Map:
    case DsStructure::Set:
        emitMapSetOp(ops, ph);
        break;
    case DsStructure::Queue:
        emitQueueOp(ops, ph);
        break;
    case DsStructure::Bank:
        emitBankOp(ops, ph);
        break;
    }
}

std::optional<Transaction>
DataStructSource::nextTransaction()
{
    if (phaseIdx >= prm.phases.size())
        return std::nullopt;

    Transaction txn;
    txn.barrierBefore = (txnInPhase == 0 && phaseIdx > 0);

    const DsPhase &ph = prm.phases[phaseIdx];
    lastPhase = phaseIdx;
    lastOps = prm.opsPerTxn;
    for (std::uint32_t i = 0; i < prm.opsPerTxn; ++i)
        emitOp(txn.ops, ph);

    ++txnsGenerated;
    ++txnInPhase;
    if (txnInPhase >= myTxns[phaseIdx]) {
        txnInPhase = 0;
        ++phaseIdx;
    }
    return txn;
}

void
DataStructSource::transactionCommitted()
{
    committedOps_ += lastOps;
    ++tallies[lastPhase].commits;
}

void
DataStructSource::transactionViolated()
{
    ++tallies[lastPhase].aborts;
}

} // namespace tcc
