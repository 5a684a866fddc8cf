/**
 * @file
 * Transactional data-structure workload engine.
 *
 * The Table-3 synthetic apps (workload/synthetic_app.hh) reproduce the
 * paper's scientific kernels: uniform-ish footprints, partitioned
 * sharing, barrier phases. This engine generates the other regime -
 * the skewed, hot-key traffic shapes of transactional services - which
 * is where optimistic schemes like lazy TCC either shine or collapse:
 *
 *   - keys drawn uniformly or Zipfian (workload/keydist.hh), with the
 *     rank->key mapping optionally scrambled by a seeded permutation
 *     so hot keys scatter across the key array (and therefore across
 *     home directories) instead of clustering on one page;
 *   - map / set / queue operation mixes (lookup / insert / erase /
 *     range-scan) over keyed word arrays with deterministic page
 *     homing (key pages round-robin across nodes);
 *   - a bank-transfer macrobench (read-modify-write pairs that
 *     conserve the total balance - an end-to-end correctness gate);
 *   - phased schedules: each phase has its own skew, mix, and
 *     optional flash-crowd override (a cold key becomes hot at the
 *     phase flip), separated by exact barrier boundaries.
 *
 * All streams are replayable static op lists (addresses never depend
 * on loaded values), so the lazy-TM replay contract holds. The queue
 * is modeled as hot head/tail counter RMWs plus slot traffic at
 * deterministically generated indices: the protocol observes the same
 * contention structure as a real ring buffer without value-dependent
 * addressing.
 *
 * Sources also count *logical operations* and per-phase commit/abort
 * tallies, so benches can report goodput (committed ops/cycle, the
 * headline metric: raw commit throughput counts aborted work, and
 * cycles alone hide that a skewed run commits mostly cheap retries)
 * and flash-crowd abort-rate flips.
 */

#ifndef TCC_WORKLOAD_DATASTRUCT_HH
#define TCC_WORKLOAD_DATASTRUCT_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hh"
#include "sim/random.hh"
#include "workload/keydist.hh"
#include "workload/transaction_source.hh"

namespace tcc {

/** Which transactional data structure the stream exercises. */
enum class DsStructure : std::uint8_t { Map, Set, Queue, Bank };

const char *dsStructureName(DsStructure s);

/**
 * Operation mix, as fractions summing to <= 1 (remainder goes to
 * lookup). Interpretation per structure:
 *   Map/Set : lookup / insert / erase / range-scan
 *   Queue   : insert = enqueue, erase = dequeue, lookup = peek,
 *             scan = head-tail occupancy check
 *   Bank    : insert and erase = transfer (two-account RMW),
 *             lookup and scan = audit (read scanLen accounts)
 */
struct DsMix {
    std::string name = "read_mostly";
    double lookup = 0.90;
    double insert = 0.05;
    double erase = 0.03;
    double scan = 0.02;
};

/** Look up a mix preset: read_mostly, mixed, write_heavy,
 *  update_only (fatal if unknown). */
const DsMix &dsMixPreset(const std::string &name);

/** One barrier-separated schedule phase. */
struct DsPhase {
    /** Transactions in this phase, totalled across all processors
     *  (fixed work, divided like the synthetic apps). */
    std::uint32_t txns = 4096;
    /** Zipfian exponent in [0, 1); 0 = uniform. */
    double theta = 0.0;
    DsMix mix;
    /** Flash crowd: when >= 0, each key draw is redirected to this
     *  key with probability flashFrac (the cold key turns hot). */
    std::int64_t flashKey = -1;
    double flashFrac = 0.0;
};

/** Full parameterization of one data-structure workload. */
struct DataStructParams {
    DsStructure structure = DsStructure::Map;
    /** Keys (Map/Set), slots (Queue), or accounts (Bank). */
    std::uint32_t numKeys = 8192;
    /** Logical data-structure operations per transaction. */
    std::uint32_t opsPerTxn = 8;
    /** Keys touched by one range-scan / audit. */
    std::uint32_t scanLen = 16;
    /** Compute cycles preceding each operation (think: hashing,
     *  comparison, marshalling). */
    std::uint32_t computePerOp = 40;
    /** Scatter Zipfian ranks over the key space with a seeded
     *  permutation (hot keys land on distinct pages/directories). */
    bool scrambleKeys = true;
    /** Starting balance per account (Bank). */
    std::uint64_t initialBalance = 1000;
    std::vector<DsPhase> phases{DsPhase{}};
};

/**
 * Key -> address mapping, the seeded rank permutation and the
 * per-phase rank generators, shared by all processors of one workload
 * instance. Word addresses:
 *
 *   keyAddr(k) = kvBase() + k * strideWords * 4
 *     Map: stride 2 (header word + value word); Set/Queue/Bank:
 *     stride 1 (membership / slot / balance word).
 *   ctrlBase(): queue head (+0) and tail (+4) counters - the global
 *     hot spot of the queue workload.
 *
 * Pages of the key array are bound round-robin across nodes by
 * WorkloadBundle::attach, so key residency is deterministic and every
 * directory serves a slice of the key space.
 */
class DsLayout
{
  public:
    DsLayout(const DataStructParams &params, std::uint64_t seed);

    static Addr kvBase() { return 0x2'0000'0000ull; }
    static Addr ctrlBase() { return 0x3'0000'0000ull; }

    std::uint32_t strideWords() const { return stride; }
    std::uint32_t numKeys() const { return keys; }

    Addr
    keyAddr(std::uint32_t key) const
    {
        return kvBase() +
               static_cast<Addr>(key) * stride * 4;
    }

    /** Map a word address back to its key, or -1 if outside the
     *  key array (bench hot-word attribution). */
    std::int64_t
    keyOf(Addr addr) const
    {
        const Addr lo = kvBase();
        const Addr hi =
            lo + static_cast<Addr>(keys) * stride * 4;
        if (addr < lo || addr >= hi)
            return -1;
        return static_cast<std::int64_t>((addr - lo) / (stride * 4));
    }

    /** Seeded bijection rank -> key (identity when scrambling is
     *  off): rank 0 is the hottest key under Zipfian draws. */
    std::uint32_t
    keyForRank(std::uint32_t rank) const
    {
        return perm.empty() ? rank : perm[rank];
    }

    /** One rank generator per schedule phase. Built once here: the
     *  Zipf normalizer costs O(numKeys), and every processor draws
     *  from the same distribution. */
    const std::vector<KeyDist> &phaseDists() const { return dists; }

  private:
    std::uint32_t keys;
    std::uint32_t stride;
    std::vector<std::uint32_t> perm;
    std::vector<KeyDist> dists;
};

/** Per-phase commit/abort tally (flash-crowd gate input). */
struct PhaseTally {
    std::uint64_t commits = 0;
    std::uint64_t aborts = 0;
};

/**
 * The transaction stream of one processor running one data-structure
 * workload. Deterministic in (params, layout seed, seed, proc,
 * numProcs); fixed total work divided among processors, with a
 * barrier exactly at each phase boundary.
 */
class DataStructSource : public TransactionSource
{
  public:
    DataStructSource(const DataStructParams &params,
                     std::shared_ptr<const DsLayout> layout,
                     std::uint64_t seed, NodeId proc,
                     std::uint32_t num_procs);

    std::optional<Transaction> nextTransaction() override;
    void transactionCommitted() override;
    void transactionViolated() override;

    /** Logical data-structure ops inside committed transactions
     *  (goodput numerator). */
    std::uint64_t committedOps() const { return committedOps_; }
    /** Commit/abort counts per schedule phase. */
    const std::vector<PhaseTally> &phaseTallies() const
    {
        return tallies;
    }
    std::uint64_t generated() const { return txnsGenerated; }

  private:
    std::uint32_t drawKey(const DsPhase &ph);
    void emitOp(std::vector<TxOp> &ops, const DsPhase &ph);
    void emitMapSetOp(std::vector<TxOp> &ops, const DsPhase &ph);
    void emitQueueOp(std::vector<TxOp> &ops, const DsPhase &ph);
    void emitBankOp(std::vector<TxOp> &ops, const DsPhase &ph);

    DataStructParams prm;
    std::shared_ptr<const DsLayout> lay;
    Rng rng;
    NodeId nodeId;
    std::uint32_t numProcs;

    std::vector<std::uint32_t> myTxns; ///< my share, per phase
    std::vector<KeyDist> dists;        ///< the layout's, per phase
    std::uint32_t phaseIdx = 0;
    std::uint32_t txnInPhase = 0;
    std::uint32_t lastPhase = 0;   ///< phase of the txn in flight
    std::uint32_t lastOps = 0;     ///< its logical op count
    std::uint64_t txnsGenerated = 0;
    std::uint64_t committedOps_ = 0;
    std::vector<PhaseTally> tallies;

    std::uint64_t enqCount = 0; ///< queue slot cursors
    std::uint64_t deqCount = 0;
};

} // namespace tcc

#endif // TCC_WORKLOAD_DATASTRUCT_HH
