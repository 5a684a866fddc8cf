#include "noc/chaos_network.hh"

#include <algorithm>

#include "common/log.hh"

namespace tcc {

bool
chaosDuplicable(MsgType t)
{
    // A duplicated LoadReply is filtered by the Mshr sequence tag; a
    // duplicated ProbeReply is filtered by the commit engine's
    // marksDone / sValidated / TID-match guards. Everything else
    // (TID grants, invalidations, acks, data-carrying flushes) has
    // effects-on-receipt and must arrive exactly once.
    return t == MsgType::LoadReply || t == MsgType::ProbeReply;
}

ChaosConfig
chaosPreset(const std::string &name)
{
    // In chaosPresetNames() order.
    static const ChaosConfig presets[] = {
        {.jitter = 3, .reorderProb = 0.10, .reorderWindow = 8},
        {.jitter = 12, .reorderProb = 0.0, .reorderWindow = 0},
        {.jitter = 4, .reorderProb = 0.5, .reorderWindow = 32},
        {.jitter = 2, .reorderProb = 0.1, .reorderWindow = 8,
         .duplicateProb = 0.2},
        {.jitter = 10, .reorderProb = 0.4, .reorderWindow = 40,
         .duplicateProb = 0.1, .duplicateLag = 17},
    };
    const auto &names = chaosPresetNames();
    for (std::size_t i = 0; i < names.size(); ++i) {
        if (name == names[i])
            return presets[i];
    }
    fatal("unknown chaos preset '%s' (try: light, jitter, reorder, "
          "dup, heavy)",
          name.c_str());
}

const std::vector<std::string> &
chaosPresetNames()
{
    static const std::vector<std::string> names = {
        "light", "jitter", "reorder", "dup", "heavy"};
    return names;
}

void
ChaosStats::merge(const ChaosStats &o)
{
    messages += o.messages;
    duplicates += o.duplicates;
    reordersHeld += o.reordersHeld;
    extraDelayTotal += o.extraDelayTotal;
    maxExtraDelay = std::max(maxExtraDelay, o.maxExtraDelay);
}

bool
ChaosModel::duplicates(MsgType t)
{
    ++counters.messages;
    if (cfg.duplicateProb > 0.0 && chaosDuplicable(t) &&
        rng.chance(cfg.duplicateProb)) {
        ++counters.duplicates;
        return true;
    }
    return false;
}

Tick
ChaosModel::extraDelay()
{
    Tick extra = cfg.jitter != 0 ? rng.below(cfg.jitter + 1) : 0;
    if (cfg.reorderProb > 0.0 && rng.chance(cfg.reorderProb)) {
        ++counters.reordersHeld;
        if (cfg.reorderWindow != 0)
            extra += rng.below(cfg.reorderWindow + 1);
    }
    counters.extraDelayTotal += extra;
    counters.maxExtraDelay = std::max(counters.maxExtraDelay, extra);
    return extra;
}

ChaosNetwork::ChaosNetwork(EventQueue &eq, std::uint32_t num_nodes,
                           const ChaosConfig &cfg, const MeshConfig &mesh_cfg,
                           Tick ideal_latency, Arena *arena)
    : Network(eq, num_nodes, arena), model(cfg),
      idealLatency(ideal_latency)
{
    if (!cfg.overIdeal)
        mesh.emplace(mesh_cfg, num_nodes);
}

void
ChaosNetwork::send(Message msg)
{
    if (msg.src >= numNodes() || msg.dst >= numNodes())
        panic("chaos send with bad endpoint %u->%u", msg.src, msg.dst);
    if (model.duplicates(msg.type)) {
        // The copy enters the transport duplicateLag cycles later, so
        // it and the original contend and jitter independently.
        Message *copy = park(msg);
        eventq.schedule(model.config().duplicateLag,
                        [this, copy]() { transmit(copy); });
    }
    transmit(park(std::move(msg)));
}

void
ChaosNetwork::transmit(Message *slot)
{
    unsigned hops = 1;
    const Tick flight =
        mesh ? mesh->flight(*slot, eventq.now(), hops) : idealLatency;
    // The fault delay is drawn on arrival, in the transport's
    // (deterministic) arrival order.
    eventq.schedule(flight, [this, slot, hops]() {
        deliverParked(slot, model.extraDelay(), hops);
    });
}

} // namespace tcc
