#include "mem/banked.h"

#include <algorithm>
#include <cmath>

#include "common/argparse.h"
#include "common/log.h"
#include "sim/arbiter.h"

namespace moca::mem {

namespace {

/** splitmix64 finalizer: scatters requester ids across home banks. */
std::uint64_t
mixId(std::uint64_t z)
{
    z += 0x9E3779B97F4A7C15ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

} // anonymous namespace

bool
BankedConfig::applyParam(const std::string &key,
                         const std::string &value)
{
    if (key == "banks") {
        banks = static_cast<int>(parseIntValue("banked:banks", value));
    } else if (key == "row_hit_bpc") {
        rowHitBpc = parseDoubleValue("banked:row_hit_bpc", value);
    } else if (key == "row_miss_bpc") {
        rowMissBpc = parseDoubleValue("banked:row_miss_bpc", value);
    } else if (key == "remap") {
        if (value == "xor")
            remap = BankRemap::Xor;
        else if (value == "mod")
            remap = BankRemap::Mod;
        else
            fatal("banked:remap=%s (expected xor or mod)",
                  value.c_str());
    } else if (key == "row_bytes") {
        rowBytes = static_cast<std::uint64_t>(
            parseIntValue("banked:row_bytes", value));
    } else if (key == "miss_cycles") {
        missCycles = static_cast<Cycles>(
            parseIntValue("banked:miss_cycles", value));
    } else if (key == "locality_tau") {
        localityTau = static_cast<Cycles>(
            parseIntValue("banked:locality_tau", value));
    } else {
        return false;
    }
    return true;
}

BankedMemoryModel::BankedMemoryModel(const sim::SocConfig &cfg,
                                     const BankedConfig &bc)
    : cfg_(cfg), bc_(bc)
{
    if (bc_.banks < 1)
        fatal("banked: banks must be >= 1 (got %d)", bc_.banks);
    if (bc_.rowBytes < 1)
        fatal("banked: row_bytes must be >= 1");
    if (bc_.localityTau < 1)
        fatal("banked: locality_tau must be >= 1");
    hitBpc_ = bc_.rowHitBpc > 0.0 ? bc_.rowHitBpc
                                  : cfg_.dramBytesPerCycle;
    missBpc_ = bc_.rowMissBpc > 0.0 ? bc_.rowMissBpc : hitBpc_ / 4.0;
    if (hitBpc_ <= 0.0 || missBpc_ <= 0.0 || missBpc_ > hitBpc_)
        fatal("banked: need 0 < row_miss_bpc <= row_hit_bpc "
              "(resolved hit=%.3f miss=%.3f)", hitBpc_, missBpc_);
    traffic_.bankBytes.assign(static_cast<std::size_t>(bc_.banks),
                              0.0);
}

int
BankedMemoryModel::homeBank(int id) const
{
    if (bc_.remap == BankRemap::Mod)
        return id % bc_.banks;
    return static_cast<int>(
        mixId(static_cast<std::uint64_t>(id)) %
        static_cast<std::uint64_t>(bc_.banks));
}

int
BankedMemoryModel::bankSpan(double bytes, int num_banks) const
{
    if (bytes <= 0.0)
        return 0;
    const double rows =
        std::ceil(bytes / static_cast<double>(bc_.rowBytes));
    return static_cast<int>(
        std::min<double>(num_banks, std::max(1.0, rows)));
}

double
BankedMemoryModel::locality(int id) const
{
    const auto idx = static_cast<std::size_t>(id);
    return id >= 0 && idx < locality_.size() ? locality_[idx] : 1.0;
}

double
BankedMemoryModel::serviceRate(int id) const
{
    const double loc = locality(id);
    return loc * hitBpc_ + (1.0 - loc) * missBpc_;
}

template <typename Visit>
void
BankedMemoryModel::forEachRun(const std::vector<Span> &spans, int banks,
                              Visit &&visit)
{
    runStart_.assign(static_cast<std::size_t>(banks), 0);
    runStart_[0] = 1;
    for (const Span &s : spans) {
        if (s.k > 0 && s.k < banks) {
            const int end = s.home + s.k;
            runStart_[static_cast<std::size_t>(s.home)] = 1;
            runStart_[static_cast<std::size_t>(
                end < banks ? end : end - banks)] = 1;
        }
    }
    for (int first = 0; first < banks;) {
        int last = first + 1;
        while (last < banks && !runStart_[static_cast<std::size_t>(last)])
            ++last;
        members_.clear();
        for (std::size_t i = 0; i < spans.size(); ++i) {
            int offset = first - spans[i].home;
            if (offset < 0)
                offset += banks;
            if (offset < spans[i].k)
                members_.push_back(i);
        }
        if (!members_.empty())
            visit(first, last, members_);
        first = last;
    }
}

const std::vector<MemGrant> &
BankedMemoryModel::arbitrate(const std::vector<MemRequest> &requests,
                             Cycles horizon, MemStepStats &stats)
{
    (void)stats; // No heuristic derate: contention is emergent.
    const std::size_t n = requests.size();
    const double q = static_cast<double>(horizon);
    std::vector<MemGrant> &grants = grants_;
    grants.assign(n, MemGrant{});
    if (n == 0 || q <= 0.0)
        return grants;

    // ---- Spans: every request's DRAM and L2 interleave span ----------
    //
    // Locality is resolved once per step: every phase below (service
    // rates, channel clamp, counters, relaxation targets) reads the
    // pre-step state.
    const int banks = bc_.banks;
    const int l2banks = std::max(1, cfg_.l2Banks);
    loc_.resize(n);
    dramSpan_.resize(n);
    l2Span_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        const int id = requests[i].id;
        if (id < 0)
            panic("banked: requester id %d is negative (MemRequest::id "
                  "must be a non-negative requester index)", id);
        loc_[i] = locality(id);
        const double d = requests[i].dramBytes;
        Span &s = dramSpan_[i];
        s.k = bankSpan(d, banks);
        s.home = s.k > 0 ? homeBank(id) : 0;
        s.share = s.k > 0 ? d / s.k : 0.0;
        const double l2 = requests[i].l2Bytes;
        Span &t = l2Span_[i];
        t.k = bankSpan(l2, l2banks);
        t.home = t.k > 0
            ? static_cast<int>(mixId(static_cast<std::uint64_t>(id)) %
                               static_cast<std::uint64_t>(l2banks))
            : 0;
        t.share = t.k > 0 ? l2 / t.k : 0.0;
    }

    // ---- DRAM: per-bank service-time arbitration ---------------------
    //
    // A bank owns `horizon` cycles of service time; a requester's
    // bytes cost time at its locality-blended rate, so low-locality
    // requesters occupy the bank longer for the same data — the
    // mechanism by which interleaving hurts everyone sharing a bank.
    // Banks of one run see identical inputs and share one allocation;
    // grants still accumulate bank by bank, in the per-bank order.
    bankTotal_.assign(static_cast<std::size_t>(banks), 0.0);
    bankGranted_.assign(static_cast<std::size_t>(banks), 0.0);
    // serviceRate() still reads the pre-step locality here: the
    // relaxation below runs after the DRAM allocation.
    forEachRun(dramSpan_, banks, [&](int first, int last,
                                     const std::vector<std::size_t> &m) {
        double total = 0.0;
        treq_.clear();
        for (const std::size_t i : m) {
            total += dramSpan_[i].share;
            treq_.push_back(
                {dramSpan_[i].share / serviceRate(requests[i].id),
                 requests[i].weight});
        }
        if (cfg_.dramProportionalArbitration)
            sim::allocateBandwidthProportional(treq_, q, tgrant_);
        else
            sim::allocateBandwidth(treq_, q, tgrant_);
        // Service time granted -> bytes, in place.
        double granted = 0.0;
        for (std::size_t s = 0; s < m.size(); ++s) {
            tgrant_[s] = std::min(
                dramSpan_[m[s]].share,
                tgrant_[s] * serviceRate(requests[m[s]].id));
            granted += tgrant_[s];
        }
        for (int b = first; b < last; ++b) {
            bankTotal_[static_cast<std::size_t>(b)] = total;
            bankGranted_[static_cast<std::size_t>(b)] = granted;
            for (std::size_t s = 0; s < m.size(); ++s)
                grants[m[s]].dramBytes += tgrant_[s];
        }
    });

    // ---- DRAM: shared-channel clamp ----------------------------------
    //
    // Row misses burn channel time: each missed row keeps the data
    // bus idle for miss_cycles of bank turnaround, so the channel's
    // data capacity shrinks with the step's expected miss count —
    // the emergent replacement for the flat model's thrash derate.
    // A lone streamer (locality 1) misses nothing and pays nothing.
    double total_granted = 0.0;
    double weighted_miss = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        total_granted += grants[i].dramBytes;
        weighted_miss += grants[i].dramBytes * (1.0 - loc_[i]);
    }
    // Self-consistent capacity: every byte costs 1/bpc cycles of data
    // time plus (miss fraction x miss_cycles / row_bytes) cycles of
    // amortized turnaround, so the channel moves q / (cost per byte)
    // bytes.  The miss fraction is a property of the traffic *mix*
    // and is invariant under the final proportional scale-down.
    const double miss_frac =
        total_granted > 0.0 ? weighted_miss / total_granted : 0.0;
    const double cycles_per_byte = 1.0 / cfg_.dramBytesPerCycle +
        miss_frac * static_cast<double>(bc_.missCycles) /
            static_cast<double>(bc_.rowBytes);
    const double channel_cap = q / cycles_per_byte;
    if (total_granted > channel_cap && total_granted > 0.0) {
        const double scale = channel_cap / total_granted;
        for (auto &g : grants)
            g.dramBytes *= scale;
        for (auto &b : bankGranted_)
            b *= scale;
    }

    // ---- DRAM: traffic counters --------------------------------------
    for (std::size_t b = 0; b < bankGranted_.size(); ++b)
        traffic_.bankBytes[b] += bankGranted_[b];
    for (std::size_t i = 0; i < n; ++i) {
        const double g = grants[i].dramBytes;
        if (g <= 0.0)
            continue;
        const double rows = g / static_cast<double>(bc_.rowBytes);
        rowHitAcc_ += rows * loc_[i];
        rowMissAcc_ += rows * (1.0 - loc_[i]);
    }
    traffic_.dramRowHits = static_cast<std::uint64_t>(rowHitAcc_);
    traffic_.dramRowMisses = static_cast<std::uint64_t>(rowMissAcc_);

    // ---- DRAM: locality relaxation -----------------------------------
    //
    // Target = the requester's share of the traffic on its own banks:
    // 1 when streaming alone, 1/x when x equal co-runners interleave
    // on the same banks.  Exponential relaxation with time constant
    // locality_tau, so short bursts barely move the state and
    // sustained co-location converges to the interleaved rate.
    const double alpha =
        1.0 - std::exp(-q / static_cast<double>(bc_.localityTau));
    for (std::size_t i = 0; i < n; ++i) {
        const Span &s = dramSpan_[i];
        if (s.k == 0)
            continue;
        double other = 0.0;
        for (int j = 0, b = s.home; j < s.k; ++j) {
            other += bankTotal_[static_cast<std::size_t>(b)] - s.share;
            if (++b == banks)
                b = 0;
        }
        const double d = requests[i].dramBytes;
        const double target = d / (d + other);
        const auto id = static_cast<std::size_t>(requests[i].id);
        if (id >= locality_.size())
            locality_.resize(id + 1, 1.0);
        locality_[id] += alpha * (target - locality_[id]);
    }

    // ---- L2: per-bank-port arbitration -------------------------------
    double l2_total_demand = 0.0;
    for (const auto &r : requests)
        l2_total_demand += r.l2Bytes;
    const double l2_bank_cap = cfg_.l2BankBytesPerCycle * q;
    double l2_granted = 0.0;
    forEachRun(l2Span_, l2banks, [&](int first, int last,
                                     const std::vector<std::size_t> &m) {
        treq_.clear();
        for (const std::size_t i : m)
            treq_.push_back({l2Span_[i].share, requests[i].weight});
        sim::allocateBandwidth(treq_, l2_bank_cap, tgrant_);
        for (int b = first; b < last; ++b) {
            for (std::size_t s = 0; s < m.size(); ++s) {
                grants[m[s]].l2Bytes += tgrant_[s];
                l2_granted += tgrant_[s];
            }
        }
    });
    // Conflict loss: what the aggregate (flat) L2 bandwidth would
    // have served but concentrated bank-port demand did not.
    const double flat_l2 =
        std::min(l2_total_demand, cfg_.l2BytesPerCycle() * q);
    traffic_.l2ConflictLostBytes +=
        std::max(0.0, flat_l2 - l2_granted);

    return grants;
}

namespace {

template <typename Config>
Config
configFromSpec(const MemSpec &spec)
{
    Config cfg;
    for (const auto &[key, value] : spec.params) {
        if (!cfg.applyParam(key, value))
            panic("memory model %s declares parameter '%s' but its "
                  "applyParam does not handle it",
                  spec.name.c_str(), key.c_str());
    }
    return cfg;
}

} // anonymous namespace

MemoryModelInfo
bankedModelInfo()
{
    return {
        "banked",
        "bank-aware DRAM + L2: interleaved bank spans, row-hit vs "
        "row-miss rates, emergent per-requester locality loss, "
        "L2 bank-port contention",
        {{"banks", "int", "8", "DRAM bank count"},
         {"row_hit_bpc", "double", "0",
          "row-hit service rate per bank in B/cyc (0 = channel BW)"},
         {"row_miss_bpc", "double", "0",
          "row-miss service rate per bank in B/cyc (0 = hit/4)"},
         {"remap", "xor|mod", "xor",
          "home-bank remap: hash-scattered or id-modulo (ablation)"},
         {"row_bytes", "int", "1024",
          "DRAM row / interleave-span granularity in bytes"},
         {"miss_cycles", "int", "24",
          "channel cycles of turnaround overhead per missed row"},
         {"locality_tau", "int", "16384",
          "locality relaxation time constant in cycles"}},
        [](const sim::SocConfig &cfg, const MemSpec &spec) {
            return std::make_unique<BankedMemoryModel>(
                cfg, configFromSpec<BankedConfig>(spec));
        },
    };
}

} // namespace moca::mem
