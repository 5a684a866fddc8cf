/**
 * @file
 * The fault model ("chaos") and the serial engine's faulty transport.
 *
 * ChaosModel draws three seeded perturbations: a uniform extra delay
 * in [0, jitter] per copy; with probability reorderProb, a further
 * hold of up to reorderWindow cycles that lets later messages overtake
 * (bounded: reordering, never starvation); and, with probability
 * duplicateProb, a second copy of an idempotent reply (LoadReply,
 * ProbeReply) lagging duplicateLag cycles. Request/ack types are never
 * duplicated: a transport that duplicates those breaks exactly-once
 * semantics the protocol (per the paper) need not defend against.
 *
 * ChaosNetwork (serial engine) and DomainNet (PDES, sim/domain.hh)
 * time a message with MeshTiming or the ideal latency and call the
 * same ChaosModel functions in the same order: duplicates() once per
 * send, extraDelay() once per copy. The one difference is when
 * extraDelay() is drawn: ChaosNetwork draws it as the copy arrives,
 * DomainNet as it is sent, because a PDES parcel needs its final tick
 * before it enters a mailbox. Every draw happens inside the
 * deterministic event loop, so a run is a pure function of
 * (seed, config). DESIGN.md section 10 audits where the protocol
 * relies on ordering and which message tags restore it.
 */

#ifndef TCC_NOC_CHAOS_NETWORK_HH
#define TCC_NOC_CHAOS_NETWORK_HH

#include <optional>
#include <string>
#include <vector>

#include "noc/network.hh"
#include "sim/random.hh"

namespace tcc {

/** Named fault presets for the CLI / sweep drivers. */
ChaosConfig chaosPreset(const std::string &name);

/** The preset names chaosPreset() accepts. */
const std::vector<std::string> &chaosPresetNames();

/** True when the protocol tolerates receiving @p t twice. */
bool chaosDuplicable(MsgType t);

/** What a ChaosModel injected. */
struct ChaosStats {
    std::uint64_t messages = 0;        ///< messages through send()
    std::uint64_t duplicates = 0;      ///< extra copies injected
    std::uint64_t reordersHeld = 0;    ///< messages given a hold
    std::uint64_t extraDelayTotal = 0; ///< sum of injected cycles
    Tick maxExtraDelay = 0;

    /** Fold another model's counters into these (PDES domains). */
    void merge(const ChaosStats &o);
    bool operator==(const ChaosStats &) const = default;
};

/** The fault draws of one transport endpoint: one seeded Rng stream
 *  plus the counters of what it injected. */
class ChaosModel
{
  public:
    explicit ChaosModel(const ChaosConfig &cfg) : cfg(cfg), rng(cfg.seed)
    {}

    /** Count one sent message and draw whether the transport also
     *  sends a copy config().duplicateLag cycles later. */
    bool duplicates(MsgType t);

    /** Draw the extra delay of one copy: the jitter plus, with
     *  probability reorderProb, a reorder hold. */
    Tick extraDelay();

    const ChaosConfig &config() const { return cfg; }
    const ChaosStats &stats() const { return counters; }

  private:
    ChaosConfig cfg;
    Rng rng;
    ChaosStats counters;
};

/**
 * The serial engine's faulty transport. Each copy takes two events:
 * its flight (mesh route or ideal latency), then, from its arrival,
 * the fault delay. Traffic statistics and the NetSend trace are
 * accounted at the arrival, with the route's hop count.
 */
class ChaosNetwork : public Network
{
  public:
    /** Faults over a mesh timed by @p mesh, or over the fixed
     *  @p ideal_latency when cfg.overIdeal. */
    ChaosNetwork(EventQueue &eq, std::uint32_t num_nodes,
                 const ChaosConfig &cfg,
                 const MeshConfig &mesh = MeshConfig{},
                 Tick ideal_latency = 1, Arena *arena = nullptr);

    void send(Message msg) override;

    const ChaosStats &chaosStats() const { return model.stats(); }

    const ChaosModel *chaosModel() const override { return &model; }

  private:
    /** Start the transport flight of a parked copy. */
    void transmit(Message *slot);

    ChaosModel model;
    /** Mesh timing; empty over the ideal base. */
    std::optional<MeshTiming<false>> mesh;
    Tick idealLatency;
};

} // namespace tcc

#endif // TCC_NOC_CHAOS_NETWORK_HH
