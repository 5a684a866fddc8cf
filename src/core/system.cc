#include "core/system.hh"

#include <algorithm>

#include "common/log.hh"
#include "obs/contention.hh"
#include "obs/metrics.hh"
#include "sim/domain.hh"

namespace tcc {

std::string
SystemConfig::validate() const
{
    if (numProcs == 0)
        return "a system needs at least one processor";
    const bool uses_mesh = network.meshBased();
    if (uses_mesh) {
        if (network.mesh.linkBytesPerCycle == 0)
            return "mesh linkBytesPerCycle must be nonzero";
        // The mesh routes around unpopulated grid slots, so ragged
        // node counts work for plain runs; chaos sweeps compare
        // against the paper's topology and insist on full grids.
        if (network.model == NetworkConfig::Model::Chaos &&
            (numProcs & (numProcs - 1)) != 0)
            return "chaos over a mesh requires a power-of-two "
                   "processor count (ragged grids skew the paper's "
                   "topology); use chaos over the ideal network for "
                   "odd sizes";
    }
    if (!uses_mesh && network.model == NetworkConfig::Model::Chaos &&
        network.idealLatency == 0) {
        return "chaos over an ideal base needs idealLatency >= 1: "
               "zero-latency delivery leaves no window for jitter or "
               "reordering to act in";
    }
    if (network.model == NetworkConfig::Model::Chaos) {
        const ChaosConfig &c = network.chaos;
        if (c.reorderProb < 0.0 || c.reorderProb > 1.0 ||
            c.duplicateProb < 0.0 || c.duplicateProb > 1.0)
            return "chaos probabilities must be within [0, 1]";
        if (c.reorderProb > 0.0 && c.reorderWindow == 0)
            return "chaos reorderProb > 0 needs a nonzero "
                   "reorderWindow";
        if (c.duplicateProb > 0.0 && c.duplicateLag == 0)
            return "chaos duplicateProb > 0 needs a nonzero "
                   "duplicateLag (a zero-lag duplicate is "
                   "indistinguishable from the original)";
    }
    if (numProcs > 4096) {
        return "this build supports at most 4096 processors (the "
               "invariant checker and scaling sweeps are sized for "
               "that); reduce numProcs or raise the cap deliberately";
    }
    if (network.multicast.topology == MulticastConfig::Topology::Tree) {
        if (network.model != NetworkConfig::Model::Mesh) {
            return "tree multicast requires the plain mesh network: "
                   "the combining tree is embedded in mesh XY routes "
                   "(keep multicast.topology = Flat for ideal or "
                   "chaos models)";
        }
        if (network.multicast.fanout < 2)
            return "tree multicast fanout must be >= 2";
    }
    if (pdes.domains > 1) {
        if (homePolicy != HomePolicy::Interleave) {
            return "PDES (pdes.domains > 1) requires "
                   "HomePolicy::Interleave: first-touch home "
                   "assignment is an artifact of the global access "
                   "order, which a partitioned run does not have";
        }
        if (!uses_mesh && network.idealLatency == 0) {
            return "PDES over an ideal network needs idealLatency >= "
                   "1: the latency is the lookahead window, and a "
                   "zero-width window cannot make progress";
        }
        if (pdes.window != 0) {
            const PdesPlan probe = computePdesPlan(
                numProcs, pdes.domains, /*window_override=*/0,
                uses_mesh, network.mesh, network.idealLatency);
            if (pdes.window > probe.lookahead) {
                return "pdes.window exceeds the network's lookahead: "
                       "widening the window past the minimum "
                       "cross-domain latency would deliver messages "
                       "late (a causality violation)";
            }
        }
    }
    return {};
}

static std::unique_ptr<Network>
buildNetwork(const SystemConfig &cfg, EventQueue &eventq, Arena *arena)
{
    const NetworkConfig &nc = cfg.network;
    switch (nc.model) {
      case NetworkConfig::Model::Ideal:
        return std::make_unique<IdealNetwork>(
            eventq, cfg.numProcs, nc.idealLatency, arena);
      case NetworkConfig::Model::Mesh:
        return std::make_unique<MeshNetwork>(eventq, cfg.numProcs,
                                             nc.mesh, arena);
      case NetworkConfig::Model::Chaos:
        return std::make_unique<ChaosNetwork>(eventq, cfg.numProcs,
                                              nc.chaos, nc.mesh,
                                              nc.idealLatency, arena);
    }
    panic("unknown network model");
}

System::System(const SystemConfig &cfg)
    : config(cfg), eventq(&arena),
      tracer(eventq, &arena, cfg.trace.capacity),
      homes(cfg.numProcs, cfg.homePolicy, cfg.pageBytes, &arena),
      store(&arena)
{
    if (const std::string err = cfg.validate(); !err.empty())
        fatal("invalid SystemConfig: %s", err.c_str());

    net = buildNetwork(cfg, eventq, &arena);
    net->setMulticast(cfg.network.multicast);
    net->setTraceRecorder(&tracer);

    if (cfg.pdes.domains > 1)
        buildPdes(); // leaves pdesState null if the partition collapses
    if (pdesState)
        return;

    if (cfg.check.invariants) {
        invariants = std::make_unique<InvariantChecker>(
            cfg.numProcs, &tracer, cfg.check.invariantHistory);
    }

    tidVendor = std::make_unique<TidVendor>(0, eventq, *net,
                                            cfg.tidVendorLatency);

    for (NodeId n = 0; n < cfg.numProcs; ++n) {
        addNode(n, eventq, *net, store, tracer, invariants.get(), arena);
        procs.back()->setBarrier(
            [this](NodeId node, std::function<void()> resume) {
                barrierArrive(node, std::move(resume));
            });
        procs.back()->setDoneHook([this]() {
            ++doneProcs;
            checkBarrierRelease();
        });
        if (cfg.check.serial) {
            procs.back()->setCommitHook(
                [this](Tid tid, NodeId proc, const auto &reads,
                       const auto &writes) {
                    serialChecker.record(tid, proc, reads, writes);
                });
        }
    }

    if (cfg.trace.metricsEpoch != 0) {
        metricsSamp = std::make_unique<MetricsSampler>(
            cfg.trace.metricsEpoch, cfg.trace.metricsCapacity, &arena);
        registerMetricProbes(*metricsSamp, 0, cfg.numProcs, *net);
    }
    if (cfg.trace.contentionTopK != 0) {
        contentionProf = std::make_unique<ContentionProfiler>(
            cfg.trace.contentionTopK, &arena);
        for (auto &p : procs)
            p->setContentionProfiler(contentionProf.get());
    }
}

System::~System() = default;

void
System::addNode(NodeId n, EventQueue &eq, Network &nw, GlobalStore &mem,
                TraceRecorder &ring, InvariantChecker *checker, Arena &ar)
{
    DirectoryConfig dir_cfg = config.directory;
    dir_cfg.lineBytes = config.cache.lineBytes;
    dir_cfg.writeThroughCommit = config.writeThroughCommit;
    ProcessorConfig proc_cfg = config.processor;
    proc_cfg.writeThroughCommit = config.writeThroughCommit;
    dirs.push_back(std::make_unique<Directory>(n, config.numProcs, eq, nw,
                                               dir_cfg, &ar));
    procs.push_back(std::make_unique<TccProcessor>(
        n, config.numProcs, eq, nw, homes, mem, config.cache, proc_cfg,
        /*vendor_node=*/0, &ar));
    dirs.back()->setTraceRecorder(&ring);
    procs.back()->setTraceRecorder(&ring);
    dirs.back()->setInvariantChecker(checker);
    procs.back()->setInvariantChecker(checker);
    nw.connect(n, [this, n](const Message &msg) { dispatch(n, msg); });
}

ChaosStats
System::chaosStats() const
{
    ChaosStats sum;
    auto add = [&sum](const Network &n) {
        if (const ChaosModel *m = n.chaosModel())
            sum.merge(m->stats());
    };
    add(*net); // carries no traffic under PDES
    if (pdesState) {
        for (const auto &d : pdesState->domains)
            add(*d->net);
    }
    return sum;
}

void
System::registerMetricProbes(MetricsSampler &m, NodeId first,
                             std::uint32_t count, const Network &nw)
{
    using K = MetricsSampler::Kind;
    using G = MetricsSampler::Merge;
    const NodeId last = first + count;
    // Probes read only state owned by the nodes [first, last) (or the
    // network shim passed in), so a PDES domain's sampler stays inside
    // its domain's confinement boundary. Registration order here IS
    // the column schema; PDES merging relies on every domain calling
    // this same function.
    m.addProbe("commits", K::Delta, G::Sum, [this, first, last] {
        std::uint64_t v = 0;
        for (NodeId n = first; n < last; ++n)
            v += procs[n]->stats().txnsCommitted;
        return v;
    });
    m.addProbe("violations", K::Delta, G::Sum, [this, first, last] {
        std::uint64_t v = 0;
        for (NodeId n = first; n < last; ++n)
            v += procs[n]->stats().violations;
        return v;
    });
    m.addProbe("useful_cycles", K::Delta, G::Sum, [this, first, last] {
        std::uint64_t v = 0;
        for (NodeId n = first; n < last; ++n)
            v += procs[n]->stats().usefulCycles;
        return v;
    });
    m.addProbe("wasted_cycles", K::Delta, G::Sum, [this, first, last] {
        std::uint64_t v = 0;
        for (NodeId n = first; n < last; ++n)
            v += procs[n]->stats().violationCycles;
        return v;
    });
    // The vendor lives at node 0; other domains contribute 0 and the
    // Max merge selects the owning domain's reading.
    m.addProbe("tids_issued", K::Gauge, G::Max, [this, first] {
        return first == 0 ? tidVendor->issued() : std::uint64_t(0);
    });
    m.addProbe("nstid_min", K::Gauge, G::Min, [this, first, last] {
        std::uint64_t v = ~std::uint64_t(0);
        for (NodeId n = first; n < last; ++n)
            v = std::min<std::uint64_t>(v, dirs[n]->nstid());
        return v;
    });
    m.addProbe("dir_busy_cycles", K::Delta, G::Sum,
               [this, first, last] {
                   std::uint64_t v = 0;
                   for (NodeId n = first; n < last; ++n)
                       v += dirs[n]->stats().busyCycles;
                   return v;
               });
    m.addProbe("net_bytes", K::Delta, G::Sum,
               [&nw] { return nw.stats().totalBytes; });
    m.addProbe("net_messages", K::Delta, G::Sum,
               [&nw] { return nw.stats().messages; });
    m.addProbe("mcast_nic_events", K::Delta, G::Sum,
               [&nw] { return nw.stats().multicastNicEvents; });
}

void
System::buildPdes()
{
    const NetworkConfig &nc = config.network;
    PdesPlan plan = computePdesPlan(config.numProcs,
                                    config.pdes.domains,
                                    config.pdes.window, nc.meshBased(),
                                    nc.mesh, nc.idealLatency);
    if (plan.domains.size() < 2)
        return; // partition collapsed (tiny machine): serial engine

    pdesState = std::make_unique<PdesState>(std::move(plan));
    PdesState &st = *pdesState;

    for (const DomainSpec &spec : st.plan.domains) {
        auto d = std::make_unique<PdesDomain>(spec,
                                              config.trace.capacity);
        d->net = std::make_unique<DomainNet>(
            d->eq, config.numProcs, spec, st.plan, nc, &d->arena);
        d->net->setTraceRecorder(&d->tracer);
        if (config.check.invariants) {
            d->checker = std::make_unique<InvariantChecker>(
                config.numProcs, &d->tracer,
                config.check.invariantHistory);
            d->checker->setNodeRange(spec.firstNode, spec.numNodes);
        }
        st.domains.push_back(std::move(d));
    }

    // The TID vendor lives in the domain owning node 0.
    PdesDomain &d0 = *st.domains[st.plan.nodeDomain[0]];
    tidVendor = std::make_unique<TidVendor>(0, d0.eq, *d0.net,
                                            config.tidVendorLatency);

    for (NodeId n = 0; n < config.numProcs; ++n) {
        PdesDomain *d = st.domains[st.plan.nodeDomain[n]].get();
        addNode(n, d->eq, *d->net, d->store, d->tracer, d->checker.get(),
                d->arena);
        // Cross-domain effects defer to the window barrier: arrivals
        // and done-hooks buffer in the domain, and the coordinator
        // merges them in domain-id order between windows.
        procs.back()->setBarrier(
            [d](NodeId node, std::function<void()> resume) {
                d->barrierArrivals.emplace_back(node,
                                                std::move(resume));
            });
        procs.back()->setDoneHook([d]() { ++d->newlyDone; });
        if (config.check.serial) {
            procs.back()->setCommitHook(
                [d](Tid tid, NodeId proc, const auto &reads,
                    const auto &writes) {
                    d->commits.push_back(PdesDomain::CommitRec{
                        tid, proc, reads, writes});
                });
        }
    }

    // Observability layers: one private instance per domain, touched
    // only by that domain's worker thread; merged at finalize.
    for (auto &d : st.domains) {
        if (config.trace.metricsEpoch != 0) {
            d->metrics = std::make_unique<MetricsSampler>(
                config.trace.metricsEpoch, config.trace.metricsCapacity,
                &d->arena);
            registerMetricProbes(*d->metrics, d->spec.firstNode,
                                 d->spec.numNodes, *d->net);
        }
        if (config.trace.contentionTopK != 0) {
            d->contention = std::make_unique<ContentionProfiler>(
                config.trace.contentionTopK, &d->arena);
            for (NodeId n = d->spec.firstNode;
                 n < d->spec.firstNode + d->spec.numNodes; ++n)
                procs[n]->setContentionProfiler(d->contention.get());
        }
    }
}

void
System::dispatch(NodeId node, const Message &msg)
{
    switch (msg.type) {
      case MsgType::LoadReq:
      case MsgType::Skip:
      case MsgType::Probe:
      case MsgType::Mark:
      case MsgType::Commit:
      case MsgType::Abort:
      case MsgType::WriteBack:
      case MsgType::FlushData:
      case MsgType::InvAck:
      case MsgType::PartialCommit:
        dirs[node]->receive(msg);
        return;
      case MsgType::LoadReply:
      case MsgType::TidReply:
      case MsgType::ProbeReply:
      case MsgType::Inv:
      case MsgType::DataReq:
      case MsgType::PartialAck:
        procs[node]->receive(msg);
        return;
      case MsgType::TidReq:
        if (node != 0)
            panic("TID request routed to node %u (vendor is node 0)",
                  node);
        tidVendor->receive(msg);
        return;
    }
    panic("unroutable message type");
}

void
System::setSource(NodeId proc_id, TransactionSource *src)
{
    procs.at(proc_id)->setSource(src);
}

void
System::bindRegion(Addr base, std::uint64_t bytes, NodeId home)
{
    const Addr page = config.pageBytes;
    for (Addr a = base; a < base + bytes; a += page)
        homes.bind(a, home);
}

void
System::initializeWord(Addr addr, std::uint64_t value)
{
    store.write(addr, value);
    if (config.check.serial)
        serialChecker.setInitial(GlobalStore::wordAlign(addr), value);
}

void
System::barrierArrive(NodeId node, std::function<void()> resume)
{
    barrierWaiters.emplace_back(node, std::move(resume));
    checkBarrierRelease();
}

void
System::checkBarrierRelease()
{
    const std::uint32_t active = config.numProcs - doneProcs;
    if (active == 0 || barrierWaiters.size() < active)
        return;
    auto waiters = std::move(barrierWaiters);
    barrierWaiters.clear();
    for (auto &[node, resume] : waiters) {
        eventq.schedule(1, [fn = std::move(resume)]() { fn(); });
    }
}

RunResult
System::run(Tick max_ticks)
{
    if (pdesState)
        return runPdes(max_ticks);

    for (auto &p : procs)
        p->start();

    RunResult res;
    if (metricsSamp) {
        // Identical to the loop below plus the epoch hook: peeking the
        // next event's tick before executing it closes every epoch
        // whose boundary has passed, with the events inside it - and
        // only those - already applied. Sampling never touches sim
        // state, so both loops produce bit-identical results; the off
        // path stays byte-for-byte the legacy loop.
        while (!eventq.empty() && eventq.now() <= max_ticks) {
            metricsSamp->advanceTo(eventq.nextWhen());
            eventq.step();
            ++res.events;
            if (invariants && invariants->failed())
                break;
        }
        metricsSamp->finish(eventq.now());
    } else {
        while (!eventq.empty() && eventq.now() <= max_ticks) {
            eventq.step();
            ++res.events;
            // An invariant failure halts the run at the next event
            // boundary: the protocol state is wrong from here on, and
            // running further would only bury the first diagnostic
            // under follow-on carnage (or trip a panic in the model
            // itself).
            if (invariants && invariants->failed())
                break;
        }
    }
    const bool halted_on_failure = invariants && invariants->failed();
    const bool hit_tick_limit = !eventq.empty() && !halted_on_failure;

    populateRunStats(res, eventq.now());

    if (config.check.serial) {
        res.serial.checked = true;
        const SerialChecker::Result v = serialChecker.verify();
        res.serial.ok = v.ok;
        res.serial.error = v.error;
        res.serial.checks = v.txnsChecked;
    }
    if (invariants) {
        invariants->finalize(tidVendor->issued(), res.completed,
                             hit_tick_limit);
        res.invariants.checked = true;
        const InvariantChecker::Result &v = invariants->result();
        res.invariants.ok = v.ok;
        res.invariants.error = v.error;
        res.invariants.checks = v.checks;
    }
    return res;
}

void
System::populateRunStats(RunResult &res, Tick fallback_now)
{
    bool all_done = true;
    Tick end = 0;
    for (auto &p : procs) {
        if (!p->done())
            all_done = false;
        else
            end = std::max(end, p->doneTick());
    }
    res.completed = all_done;
    res.cycles = all_done ? end : fallback_now;

    // Early finishers idle until the last processor completes.
    if (all_done) {
        for (auto &p : procs) {
            p->mutableStats().idleCycles += end - p->doneTick();
        }
    }

    res.breakdown = computeBreakdown();
    res.procs.reserve(procs.size());
    for (const auto &p : procs) {
        const auto &s = p->stats();
        ProcRunStats ps;
        ps.txnsCommitted = s.txnsCommitted;
        ps.violations = s.violations;
        ps.overflows = s.overflows;
        ps.soloCommits = s.soloCommits;
        ps.committedInstructions = s.committedInstructions;
        res.committedTxns += ps.txnsCommitted;
        res.violations += ps.violations;
        res.overflows += ps.overflows;
        res.committedInstructions += ps.committedInstructions;
        res.procs.push_back(ps);
    }
    res.dirs.reserve(dirs.size());
    for (const auto &d : dirs) {
        const auto &s = d->stats();
        DirRunStats ds;
        ds.nstid = d->nstid();
        ds.commitsServed = s.commitsServed;
        ds.skipsReceived = s.skipsReceived;
        ds.abortsServed = s.abortsServed;
        ds.invalidationsSent = s.invalidationsSent;
        ds.writeBacksDropped = s.writeBacksDropped;
        res.dirs.push_back(ds);
    }
    res.quiesced = protocolQuiesced();
}

void
System::pdesBarrierPhase(Tick at)
{
    PdesState &st = *pdesState;
    for (auto &d : st.domains) {
        doneProcs += d->newlyDone;
        d->newlyDone = 0;
        for (auto &w : d->barrierArrivals)
            barrierWaiters.push_back(std::move(w));
        d->barrierArrivals.clear();
    }
    const std::uint32_t active = config.numProcs - doneProcs;
    if (active != 0 && barrierWaiters.size() < active)
        return;
    auto waiters = std::move(barrierWaiters);
    barrierWaiters.clear();
    for (auto &[node, resume] : waiters) {
        const std::uint32_t dom = st.plan.nodeDomain[node];
        st.domains[dom]->eq.scheduleAt(
            at, [fn = std::move(resume)]() { fn(); });
        st.pulse[dom].next = std::min(st.pulse[dom].next, at);
    }
}

RunResult
System::runPdes(Tick max_ticks)
{
    PdesState &st = *pdesState;
    RunResult res;
    const std::uint32_t num_domains =
        static_cast<std::uint32_t>(st.domains.size());
    std::uint32_t jobs =
        config.pdes.jobs == 0 ? num_domains : config.pdes.jobs;
    jobs = std::max(1u, std::min(jobs, num_domains));
    res.pdes.domains = num_domains;
    res.pdes.jobs = jobs;
    res.pdes.lookahead = st.plan.lookahead;

    // Seed every replica from the master store (initializeWord state),
    // then kick the sources off on their domains' queues.
    for (auto &d : st.domains)
        d->store.copyFrom(store);
    for (auto &p : procs)
        p->start();

    // Each worker runs its domains to the sub-phase limit, then
    // summarizes the domain into its pulse slot while the domain's
    // state is still hot in this worker's cache: next event tick plus
    // flags for parked parcels, store-log writes, and barrier-phase
    // work. Domains with no event inside the sub-phase are never
    // touched at all (the idle-domain fast path) - their pulse is
    // kept current by the coordinator's own injections.
    WindowCrew crew(jobs, [&st, num_domains, jobs](unsigned w) {
        for (std::uint32_t i = w; i < num_domains; i += jobs) {
            PdesState::DomainPulse &pu = st.pulse[i];
            if (pu.next > st.curLimit)
                continue;
            PdesDomain &d = *st.domains[i];
            if (d.metrics) {
                // Metrics-aware stepping, clamped to the window end:
                // parcels injected at the barrier arrive at or after
                // window_end (= curLimit + 1), so every epoch ending
                // inside the window is final once local events have
                // run. The trailing runUntil executes nothing; it only
                // advances now() to the limit, exactly like the plain
                // path below.
                const Tick bound = st.curLimit >= kTickMax - 1
                                       ? kTickMax
                                       : st.curLimit + 1;
                while (d.eq.nextWhen() <= st.curLimit) {
                    d.metrics->advanceTo(d.eq.nextWhen());
                    d.eq.step();
                }
                d.metrics->advanceTo(bound);
                d.eq.runUntil(st.curLimit);
            } else {
                d.eq.runUntil(st.curLimit);
            }
            std::uint32_t f = 0;
            if (d.net->hasParcels())
                f |= PdesState::kPulseParcels;
            if (!d.storeLog.empty())
                f |= PdesState::kPulseStore;
            if (!d.barrierArrivals.empty() || d.newlyDone != 0 ||
                (d.checker && d.checker->failed()))
                f |= PdesState::kPulseSync;
            pu.next = d.eq.nextWhen();
            pu.flags = f;
        }
    });

    const Tick lookahead = st.plan.lookahead;
    const bool adaptive =
        config.pdes.sync == PdesConfig::Sync::Adaptive;
    res.pdes.adaptive = adaptive;
    st.initPulse();
    Tick phase_start = 0;
    /** Upper bound on every epoch boundary any domain has closed (the
     *  last window_end); the common finish() tick that equalizes
     *  per-domain epoch counts for the merge. */
    Tick metrics_end = 0;
    Tick window_start = 0;
    bool window_open = false;
    bool halted = false;
    for (;;) {
        const Tick next = st.earliestNext();
        if (next == kTickMax)
            break; // drained: every queue and mailbox is empty
        if (next > max_ticks)
            break; // remaining work is beyond the tick limit
        // Idle gaps (e.g. everyone waiting out a commit) fast-forward
        // the sub-phase: sub-phases must be contiguous and end at the
        // EOT bound min_d(next_d + lookahead) == next + lookahead -
        // no cross-domain effect can land earlier, so every domain
        // may execute up to (but not at) that bound.
        phase_start = std::max(phase_start, next);
        if (!window_open) {
            window_start = phase_start;
            window_open = true;
        }
        const Tick window_end = pdesWindowEnd(phase_start, lookahead);
        metrics_end = window_end;
        st.curLimit = std::min(window_end - 1, max_ticks);
        crew.runPhase();
        ++res.pdes.phases;

        // Fold the per-domain pulses: one pass over a contiguous
        // array instead of poking every domain's queues and logs.
        std::uint32_t effects = 0;
        for (const PdesState::DomainPulse &pu : st.pulse) {
            effects |= pu.flags;
            if (pu.next > st.curLimit)
                ++res.pdes.idleDomainSkips;
        }

        // Parcels flush every sub-phase: they carry exact arrival
        // ticks, so delivery is independent of the barrier cadence.
        if (effects & PdesState::kPulseParcels)
            res.pdes.mailboxMessages += st.flushMailboxes(window_end);

        // Close the window when the sub-phase produced output only a
        // barrier can publish (store writes, SPMD arrivals, done
        // transitions, a checker failure). Under the fixed cadence,
        // close unconditionally - that is the legacy window grid.
        const bool close =
            !adaptive ||
            (effects &
             (PdesState::kPulseStore | PdesState::kPulseSync)) != 0;
        if (close) {
            if (effects & PdesState::kPulseStore)
                st.applyStoreLogs();
            else
                ++res.pdes.emptyBroadcastsSkipped;
            if (effects & PdesState::kPulseSync)
                pdesBarrierPhase(window_end);
            ++res.pdes.windows;
            res.pdes.windowWidth.sample(
                static_cast<double>(window_end - window_start));
            window_open = false;
            // An invariant failure halts the run at the window
            // boundary; the failing domain raised kPulseSync, so the
            // window closed exactly where the fixed cadence halts.
            if ((effects & PdesState::kPulseSync) &&
                config.check.invariants) {
                for (auto &d : st.domains) {
                    if (d->checker->failed()) {
                        halted = true;
                        break;
                    }
                }
            }
            if (halted)
                break;
        }
        for (PdesState::DomainPulse &pu : st.pulse)
            pu.flags = 0;
        phase_start = window_end;
    }
    const bool hit_tick_limit = !halted && st.earliestNext() != kTickMax;

    for (auto &d : st.domains)
        res.events += d->eq.executed();
    // All replicas are convergent (every write log was applied
    // everywhere); adopt one as the master committed state.
    store.copyFrom(st.domains[0]->store);
    // Fold the domain shims' traffic into the System-level network and
    // the domain trace rings into the System ring, canonically.
    for (auto &d : st.domains)
        net->accumulateStats(d->net->stats());
    st.mergeTraces(tracer);

    // Close and merge the observability layers, in domain-id order.
    // Every domain finishes at the same tick (>= every window bound it
    // ever sampled under), so all close identical epoch counts and the
    // merge is element-wise - independent of jobs by construction.
    if (config.trace.metricsEpoch != 0) {
        for (auto &d : st.domains)
            d->metrics->finish(metrics_end);
        metricsSamp = std::make_unique<MetricsSampler>(
            config.trace.metricsEpoch, config.trace.metricsCapacity,
            &arena);
        registerMetricProbes(*metricsSamp, 0, config.numProcs, *net);
        std::vector<const MetricsSampler *> parts;
        parts.reserve(st.domains.size());
        for (auto &d : st.domains)
            parts.push_back(d->metrics.get());
        metricsSamp->adoptMerged(parts);
    }
    if (config.trace.contentionTopK != 0) {
        contentionProf = std::make_unique<ContentionProfiler>(
            config.trace.contentionTopK, &arena);
        for (auto &d : st.domains)
            contentionProf->mergeFrom(*d->contention);
    }

    populateRunStats(res, phase_start);
    lastPdesStats = res.pdes;

    if (config.check.serial) {
        // The oracle replays in TID order regardless of record order;
        // merge the per-domain buffers in TID order for determinism.
        std::vector<const PdesDomain::CommitRec *> all;
        for (auto &d : st.domains) {
            for (const auto &c : d->commits)
                all.push_back(&c);
        }
        std::sort(all.begin(), all.end(),
                  [](const PdesDomain::CommitRec *a,
                     const PdesDomain::CommitRec *b) {
                      return a->tid < b->tid;
                  });
        for (const PdesDomain::CommitRec *c : all)
            serialChecker.record(c->tid, c->proc, c->reads, c->writes);
        res.serial.checked = true;
        const SerialChecker::Result v = serialChecker.verify();
        res.serial.ok = v.ok;
        res.serial.error = v.error;
        res.serial.checks = v.txnsChecked;
    }
    if (config.check.invariants) {
        res.invariants.checked = true;
        // On a halt the failing verdict is already recorded; running
        // the completeness pass would bury it under the (expected)
        // incompleteness of the aborted run.
        if (!halted) {
            for (auto &d : st.domains) {
                d->checker->finalize(tidVendor->issued(),
                                     res.completed, hit_tick_limit);
            }
        }
        for (auto &d : st.domains) {
            const InvariantChecker::Result &v = d->checker->result();
            res.invariants.checks += v.checks;
            if (res.invariants.ok && !v.ok) {
                res.invariants.ok = false;
                res.invariants.error = v.error;
            }
        }
    }
    return res;
}

Breakdown
System::computeBreakdown() const
{
    Breakdown bd;
    for (const auto &p : procs) {
        const auto &s = p->stats();
        bd.useful += s.usefulCycles;
        bd.miss += s.missCycles;
        bd.commit += s.commitCycles;
        bd.idle += s.idleCycles;
        bd.violation += s.violationCycles;
    }
    return bd;
}

std::uint64_t
System::committedInstructions() const
{
    std::uint64_t n = 0;
    for (const auto &p : procs)
        n += p->stats().committedInstructions;
    return n;
}

bool
System::protocolQuiesced() const
{
    const Tid issued = tidVendor->issued();
    for (const auto &d : dirs) {
        if (!d->quiesced())
            return false;
        if (d->nstid() != issued)
            return false;
    }
    return true;
}

} // namespace tcc
