#include "arch/core.hh"

#include <algorithm>
#include <array>

#include "checkpoint/archive.hh"
#include "checkpoint/program_table.hh"
#include "common/logging.hh"

namespace piton::arch
{

Core::Core(TileId tile, const config::PitonParams &params,
           MemorySystem &mem, const power::EnergyModel &energy,
           power::EnergyLedger &ledger, power::TileEnergyLedger &tile_energy,
           double dyn_factor)
    : tile_(tile), params_(params), mem_(mem), energy_(energy),
      ledger_(ledger), dynFactor_(dyn_factor), tileEnergy_(tile_energy)
{
    piton_assert(params_.threadsPerCore >= 1
                     && params_.threadsPerCore <= kMaxThreadsPerCore,
                 "threads per core must be in [1, %u], got %u",
                 kMaxThreadsPerCore, params_.threadsPerCore);
    threads_.resize(params_.threadsPerCore);
    lastIssue_.resize(params_.threadsPerCore, {nullptr, 0});
    piton_assert(params_.storeBufferEntries > 0,
                 "store buffer needs at least one entry");
    storeBuffer_.resize(params_.storeBufferEntries);
    hwidBase_ = static_cast<RegVal>(tile_) * params_.threadsPerCore;
    l1iLineMask_ = ~static_cast<Addr>(params_.l1i.lineBytes - 1);
}

void
Core::loadProgram(ThreadId tid, const isa::Program *program,
                  const std::vector<std::pair<int, RegVal>> &init_regs)
{
    piton_assert(tid < threads_.size(), "thread id %u out of range", tid);
    piton_assert(program && !program->empty(), "empty program");
    ThreadState &t = threads_[tid];
    t = ThreadState{};
    t.program = program;
    t.status = ThreadStatus::Ready;
    for (const auto &[reg, val] : init_regs) {
        piton_assert(reg > 0 && reg < static_cast<int>(isa::kNumIntRegs),
                     "bad init register %d", reg);
        t.regs[static_cast<std::size_t>(reg)] = val;
    }
}

bool
Core::draftCheck(ThreadId tid, const ThreadState &t)
{
    if (!execDrafting_ || threads_.size() < 2)
        return false;
    // Drafted when the sibling thread's last issued instruction is the
    // same static instruction (same program, same pc).
    const ThreadId sibling = (tid + 1) % threads_.size();
    const auto &[prog, pc] = lastIssue_[sibling];
    return prog == t.program && pc == t.pc;
}

void
Core::drainStoreBuffer(Cycle now)
{
    while (sbCount_ > 0 && storeBuffer_[sbHead_] <= now) {
        if (++sbHead_ == storeBuffer_.size())
            sbHead_ = 0;
        --sbCount_;
    }
}

// Forced inline into both callers (issue() and the run-ahead loop):
// the loop's per-instruction cost is dominated by operand spills
// around an out-of-line call.
#if defined(__GNUC__)
[[gnu::always_inline]]
#endif
inline Cycle
Core::executeLocal(ThreadState &t, const isa::DecodedInst &d, ThreadId tid,
                   Cycle now)
{
    const isa::InstClass cls = d.cls;
    switch (d.kind) {
      case isa::IssueKind::Branch: {
        chargeExec(cls, t.cc.zero, t.cc.negative);
        const bool taken = isa::branchTaken(d.op, t.cc);
        t.pc = taken ? d.target : t.pc + 1;
        ++t.classCounts[static_cast<std::size_t>(cls)];
        t.readyAt = now + d.latency;
        ++t.instsExecuted;
        return now + d.latency;
      }
      case isa::IssueKind::Halt:
        t.status = ThreadStatus::Halted;
        ++t.classCounts[static_cast<std::size_t>(cls)];
        ++t.instsExecuted;
        return kNever;
      case isa::IssueKind::Alu:
      default: {
        // ALU / FP / pseudo ops.  Source operand values drive the
        // switching energy.
        const auto &srcs = d.fp ? t.fregs : t.regs;
        const RegVal rs1 = srcs[d.rs1];
        const RegVal rs2 = d.useImm ? static_cast<RegVal>(d.imm)
                                    : srcs[d.rs2];
        chargeExec(cls, rs1, rs2);
        const RegVal hwid = hwidBase_ + tid;
        const isa::AluResult res =
            isa::evalAluOp(d.op, d.imm, rs1, rs2, hwid);
        // %r0 is hardwired zero; FP registers have no zero register.
        if (res.writesRd && (d.fp || d.rd != 0)) {
            auto &dsts = d.fp ? t.fregs : t.regs;
            dsts[d.rd] = res.value;
        }
        if (res.setsCc)
            t.cc = res.cc;
        ++t.classCounts[static_cast<std::size_t>(cls)];
        t.readyAt = now + d.latency;
        ++t.instsExecuted;
        ++t.pc;
        return now + d.latency;
      }
    }
}

void
Core::chargeLedger(power::Category c, const power::RailEnergy &e)
{
    if (ledger_.addCore(c, e))
        return; // captured: replay applies the per-tile share
    tileEnergy_.add(tile_, e);
}

std::size_t
Core::storeBufferDepth(Cycle now) const
{
    // Entries are sorted by completion cycle, so in-flight stores are
    // a suffix of the live ring contents.
    std::size_t depth = 0;
    std::size_t idx = sbHead_;
    for (std::uint32_t i = 0; i < sbCount_; ++i) {
        depth += (storeBuffer_[idx] > now);
        if (++idx == storeBuffer_.size())
            idx = 0;
    }
    return depth;
}

void
Core::enableBbv(std::uint32_t buckets)
{
    if (buckets == 0) {
        bbv_.clear();
        bbv_.shrink_to_fit();
        bbvShift_ = 0;
        bbvBuckets_ = 0;
        return;
    }
    // buckets == 1 would make bbvShift_ 64 (shift UB); there is no
    // reason to profile into a single bucket anyway.
    piton_assert(buckets >= 2 && buckets <= (1u << 20)
                     && (buckets & (buckets - 1)) == 0,
                 "BBV buckets must be a power of two in [2, 2^20], got %u",
                 buckets);
    std::uint32_t lg = 0;
    while ((1u << lg) != buckets)
        ++lg;
    bbvShift_ = 64 - lg;
    bbvBuckets_ = buckets;
    bbv_.assign(buckets, 0);
}

bool
Core::allThreadsDone() const
{
    for (const auto &t : threads_) {
        if (t.status == ThreadStatus::Ready)
            return false;
    }
    return true;
}

std::uint64_t
Core::totalInsts() const
{
    std::uint64_t n = 0;
    for (const auto &t : threads_)
        n += t.instsExecuted;
    return n;
}

bool
Core::tick(Cycle now)
{
    // Duty-gated: no issue, and also no lazy store-buffer pruning — the
    // fast path never visits a gated core (nextEventCycle is kNever),
    // so the legacy path must not do bookkeeping here either.  The
    // drain is lazy/idempotent anyway; skipping it is invisible.
    if (dvfsGated_)
        return false;
    drainStoreBuffer(now);

    // Round-robin thread selection starting after the last issuer, so
    // two ready threads alternate cycle by cycle (fine-grained MT).
    // Under Execution Drafting the selector switches to ExecD's MinPC
    // policy (pickMinPc).
    const auto n = static_cast<std::uint32_t>(threads_.size());
    const auto ready = [&](std::uint32_t tid) {
        const ThreadState &t = threads_[tid];
        return t.status == ThreadStatus::Ready && t.readyAt <= now;
    };
    std::uint32_t pick = n; // invalid
    if (execDrafting_) {
        pick = pickMinPc(lastIssued_, ready);
    } else {
        std::uint32_t tid = lastIssued_;
        for (std::uint32_t i = 0; i < n; ++i) {
            if (++tid >= n)
                tid = 0;
            if (ready(tid)) {
                pick = tid;
                break;
            }
        }
    }
    if (pick == n)
        return false;

    ThreadState &t = threads_[pick];
    // A drafted instruction reuses the sibling's front-end work: no
    // context-switch energy is paid for it.  (Without ExecD,
    // draftCheck is constant false and this is the plain FGMT
    // context-switch charge of Section IV-H2.)
    draftActive_ = draftCheck(pick, t);
    if (pick != lastIssued_ && !draftActive_) {
        ++threadSwitches_;
        charge(power::Category::Exec,
               energy_.threadSwitchEnergy().scaled(dynFactor_));
    }
    lastIssued_ = pick;
    const std::uint32_t pc_before = t.pc;
    const isa::Program *prog = t.program;
    const std::uint64_t insts_before = t.instsExecuted;
    issue(t, pick, now);
    // An I-fetch miss stalls without executing: don't record it.
    if (t.instsExecuted != insts_before) {
        // Draft-match history only feeds draftCheck, so it is
        // maintained only while ExecD is on (setExecDrafting clears it
        // on a mode change, so a later enable starts from a clean
        // slate instead of stale pre-drafting history).
        if (execDrafting_) {
            if (draftActive_)
                ++draftedInsts_;
            lastIssue_[pick] = {prog, pc_before};
        }
        if (trace_)
            trace_(tile_, pick, now, prog->pcOf(pc_before),
                   prog->at(pc_before));
        if (bbvShift_ != 0)
            noteBbv(pick, pc_before);
    }
    draftActive_ = false;
    return true;
}

Core::AheadResult
Core::runAhead(Cycle from, Cycle lim)
{
    piton_assert(!trace_, "run-ahead on a traced core (tile %u)", tile_);
    return execDrafting_ ? runAheadLoop<true>(from, lim)
                         : runAheadLoop<false>(from, lim);
}

template <bool Drafting>
Core::AheadResult
Core::runAheadLoop(Cycle from, Cycle lim)
{
    static_assert(kMaxThreadsPerCore == 2);
    // Per-thread ready cycle, kNever for a thread that is not Ready
    // (and for the absent sibling of a one-thread core): such a thread
    // is never picked and never sets the next event.  Only the picked
    // thread's entry changes inside the loop.
    std::array<Cycle, kMaxThreadsPerCore> rdy{kNever, kNever};
    for (std::size_t tid = 0; tid < threads_.size(); ++tid) {
        const ThreadState &t = threads_[tid];
        rdy[tid] = t.status == ThreadStatus::Ready ? t.readyAt : kNever;
    }
    // Scaling the switch energy is deterministic, so hoisting it out
    // of the loop keeps the charged bits identical.
    const power::RailEnergy switch_e =
        energy_.threadSwitchEnergy().scaled(dynFactor_);
    std::uint32_t last = lastIssued_;
    Cycle cur = from;
    // The result is filled in on exit only: AheadResult lives in the
    // caller's frame, so per-issue stores to it would stay in the loop.
    bool ticked = false;
    Cycle ticked_at = 0;
    // No store issues inside the loop, so the buffer only drains: once
    // empty it stays empty.
    bool sb_live = sbCount_ != 0;
    const auto ready = [&](std::uint32_t tid) { return rdy[tid] <= cur; };
    for (;;) {
        // `cur` is always a cycle where at least one thread is ready
        // (the caller's next event, then the loop's own), so the pick
        // always finds one.
        if (sb_live) {
            drainStoreBuffer(cur);
            sb_live = sbCount_ != 0;
        }
        std::uint32_t pick;
        if constexpr (Drafting) {
            pick = pickMinPc(last, ready);
        } else {
            // tick()'s round-robin scan order: the sibling of the last
            // issuer first, else the last issuer itself.
            pick = last ^ 1u;
            if (!ready(pick))
                pick = last;
        }
        ThreadState &t = threads_[pick];

        // Pause before anything observable happens: the resume's
        // tick() re-picks the same thread (nothing above mutated its
        // inputs) and pays the switch charge then, exactly as the
        // in-order path would.
        if (t.pc >= t.program->size())
            break;
        const isa::DecodedInst &d = t.program->decoded(t.pc);
        if (d.kind == isa::IssueKind::Load || d.kind == isa::IssueKind::Store
            || d.kind == isa::IssueKind::Cas)
            break;
        // ALU/branch/halt: core-local iff the fetch stays in the tile's
        // own L1I (which no other tile ever touches — fills come only
        // from this tile's ifetch misses).  l1iResident() leaves LRU
        // untouched; the committed fetch below applies the update.
        const Addr fline = d.pc & l1iLineMask_;
        CacheLine *const cl = t.fetchRef;
        const bool filter_hit =
            cl && t.fetchLine == fline && cl->tag == fline && cl->valid();
        if (!filter_hit && !mem_.l1iResident(tile_, fline))
            break;

        // Committed to this issue: tick()'s per-cycle charge order
        // (thread switch, fetch, exec).
        const std::uint32_t pc_issue = t.pc;
        capCycle_ = cur;
        if constexpr (Drafting)
            draftActive_ = draftCheck(pick, t);
        if (pick != last && !(Drafting && draftActive_)) {
            ++threadSwitches_;
            charge(power::Category::Exec, switch_e);
        }
        last = pick;

        if (filter_hit) [[likely]] {
            cl->lastUse = cur;
        } else {
            const std::uint32_t extra = mem_.ifetch(tile_, d.pc, cur);
            piton_assert(extra == 0, "resident L1I line missed in ifetch");
            t.fetchLine = fline;
            t.fetchRef = mem_.l1iLine(tile_, fline);
        }
        rdy[pick] = executeLocal(t, d, pick, cur);
        if constexpr (Drafting) {
            if (draftActive_)
                ++draftedInsts_;
            lastIssue_[pick] = {t.program, pc_issue};
            draftActive_ = false;
        }
        if (bbvShift_ != 0)
            noteBbv(pick, pc_issue);

        ticked = true;
        ticked_at = cur;
        const Cycle next = std::max(cur + 1, std::min(rdy[0], rdy[1]));
        if (next >= lim) { // includes kNever: every thread done
            lastIssued_ = last;
            return {next, ticked_at, false, true};
        }
        cur = next;
    }
    lastIssued_ = last;
    return {cur, ticked_at, true, ticked};
}

template Core::AheadResult Core::runAheadLoop<false>(Cycle, Cycle);
template Core::AheadResult Core::runAheadLoop<true>(Cycle, Cycle);

Core::AheadResult
Core::resumeShared(Cycle c, Cycle lim)
{
    // The shared op's core-side charges tag through capCycle_; its
    // memory-side charges go through the chip ledger's capture (phase 2
    // runs serially, so touching the shared ledger here is safe).  Both
    // streams land in this core's log, in charge order.
    capCycle_ = c;
    ledger_.setCaptureCycle(c);
    tick(c); // the pending shared-memory op
    const Cycle next = nextEventCycle(c + 1);
    if (next == kNever || next >= lim)
        return {next, c, false, true};
    AheadResult r = runAhead(next, lim);
    if (!r.ticked || r.last < c)
        r.last = c;
    r.ticked = true;
    return r;
}

void
Core::issue(ThreadState &t, ThreadId tid, Cycle now)
{
    piton_assert(t.pc < t.program->size(),
                 "pc %u fell off the end of the program (size %u); "
                 "programs must loop or halt",
                 t.pc, t.program->size());

    // Predecoded record: energy class, issue latency, PC, operand
    // fields, and dispatch group resolved once at Program construction.
    const isa::DecodedInst &d = t.program->decoded(t.pc);

    // Instruction fetch.  The per-thread MRU filter handles the
    // common same-line repeat fetch: revalidate the cached line and
    // apply the LRU touch the full lookup would.  Anything else (line
    // crossing, eviction, invalidation) takes the full L1I path; an
    // L1I miss stalls the thread and retries.
    const Addr fline = d.pc & l1iLineMask_;
    CacheLine *const cl = t.fetchRef;
    if (cl && t.fetchLine == fline && cl->tag == fline && cl->valid())
        [[likely]] {
        cl->lastUse = now;
    } else {
        const std::uint32_t fetch_extra = mem_.ifetch(tile_, d.pc, now);
        if (fetch_extra > 0) {
            t.readyAt = now + fetch_extra;
            t.memStallCycles += fetch_extra;
            return;
        }
        t.fetchLine = fline;
        t.fetchRef = mem_.l1iLine(tile_, fline);
    }

    const isa::InstClass cls = d.cls;

    switch (d.kind) {
      case isa::IssueKind::Load: {
        const Addr addr = t.regs[d.rs1] + static_cast<Addr>(d.imm);
        RegVal data = 0;
        const AccessOutcome out = mem_.load(tile_, addr, data, now);
        // Load energy switches with the returned data and the address
        // bus (the operand-value dependence of Fig. 11).
        chargeExec(cls, data, static_cast<RegVal>(addr));
        if (d.rd != 0)
            t.regs[d.rd] = data;
        ++t.classCounts[static_cast<std::size_t>(cls)];
        if (out.level != HitLevel::L1) {
            ++t.loadRollbacks;
            t.memStallCycles += out.latency - lat_.loadL1Hit;
        }
        t.readyAt = now + out.latency;
        ++t.instsExecuted;
        ++t.pc;
        return;
      }
      case isa::IssueKind::Store: {
        drainStoreBuffer(now);
        if (sbCount_ >= params_.storeBufferEntries) {
            // Speculative issue found the buffer full: roll back this
            // thread and replay the store once a slot frees.
            ++t.storeRollbacks;
            charge(power::Category::Rollback,
                   energy_.rollbackEnergy().scaled(dynFactor_));
            t.readyAt = storeBuffer_[sbHead_];
            return; // pc unchanged: the store re-executes
        }
        const Addr addr = t.regs[d.rs1] + static_cast<Addr>(d.imm);
        const RegVal data = t.regs[d.rd];
        chargeExec(cls, data, static_cast<RegVal>(addr));
        const AccessOutcome out = mem_.store(tile_, addr, data, now);
        // Stores drain serially: one per store latency.
        const Cycle start = std::max(now, lastStoreDrain_);
        const Cycle done = start + out.latency;
        std::size_t slot = sbHead_ + sbCount_;
        if (slot >= storeBuffer_.size())
            slot -= storeBuffer_.size();
        storeBuffer_[slot] = done;
        ++sbCount_;
        lastStoreDrain_ = done;
        // The thread itself continues; later instructions bypass the
        // buffered store.
        ++t.classCounts[static_cast<std::size_t>(cls)];
        t.readyAt = now + 1;
        ++t.instsExecuted;
        ++t.pc;
        return;
      }
      case isa::IssueKind::Cas: {
        const Addr addr = t.regs[d.rs1];
        chargeExec(cls, t.regs[d.rs2], t.regs[d.rd]);
        RegVal old = 0;
        const AccessOutcome out = mem_.atomicCas(
            tile_, addr, t.regs[d.rs2], t.regs[d.rd], old, now);
        if (d.rd != 0)
            t.regs[d.rd] = old;
        ++t.classCounts[static_cast<std::size_t>(cls)];
        t.memStallCycles += out.latency;
        t.readyAt = now + out.latency;
        ++t.instsExecuted;
        ++t.pc;
        return;
      }
      default:
        executeLocal(t, d, tid, now);
        return;
    }
}

void
Core::serialize(ckpt::Archive &ar, const ckpt::ProgramTable &pt)
{
    ckpt::Archive::check(capLog_ == nullptr,
                         "core capture active at checkpoint");
    ar.ioExpect(static_cast<std::uint32_t>(threads_.size()),
                "threads per core");
    for (auto &t : threads_) {
        for (auto &r : t.regs)
            ar.io(r);
        for (auto &r : t.fregs)
            ar.io(r);
        ar.io(t.cc.zero);
        ar.io(t.cc.negative);
        pt.ioRef(ar, t.program);
        ar.io(t.pc);
        ckpt::Archive::check(
            t.program == nullptr || t.pc < t.program->size(),
            "thread pc out of range");
        ar.ioEnum(t.status, static_cast<ThreadStatus>(3));
        ckpt::Archive::check(
            t.status == ThreadStatus::Idle || t.program != nullptr,
            "non-idle thread without a program");
        ar.io(t.readyAt);
        ar.io(t.fetchLine);
        if (ar.loading()) {
            // Re-resolve the MRU fetch handle against the restored L1I
            // (the caller serializes MemorySystem first).  A resident
            // line yields the same filter hit the saved pointer would
            // have revalidated to; an absent one falls back to the full
            // lookup — exactly as a stale saved pointer would.
            t.fetchRef = (t.program != nullptr && t.fetchLine != ~Addr{0})
                             ? mem_.l1iLine(tile_, t.fetchLine)
                             : nullptr;
        }
        ar.io(t.instsExecuted);
        for (auto &c : t.classCounts)
            ar.io(c);
        ar.io(t.loadRollbacks);
        ar.io(t.storeRollbacks);
        ar.io(t.memStallCycles);
    }

    // The per-tile energy accumulator lives in the chip's SoA
    // TileEnergyLedger, serialized as its own chip.tile_energy section
    // (format v2); nothing per-core to write here.
    ar.io(lastIssued_);
    ckpt::Archive::check(lastIssued_ < threads_.size(),
                         "lastIssued out of range");
    ar.io(execDrafting_);
    ar.io(threadSwitches_);
    ar.io(draftedInsts_);
    for (auto &li : lastIssue_) {
        pt.ioRef(ar, li.first);
        ar.io(li.second);
    }
    if (ar.loading()) {
        draftActive_ = false; // transient within one tick
        // Captures are round-local scratch, never live at a checkpoint
        // (the ledger guard enforces that on save).
        capLog_ = nullptr;
        capBase_ = 0;
        capCycle_ = 0;
    }

    // Store buffer: live completion cycles only, oldest first (the
    // ring's head offset is not architectural state).
    std::uint32_t live = sbCount_;
    ar.io(live);
    ckpt::Archive::check(live <= storeBuffer_.size(),
                         "store buffer overflow");
    if (ar.loading()) {
        sbHead_ = 0;
        sbCount_ = live;
    }
    for (std::uint32_t i = 0; i < live; ++i) {
        Cycle &slot =
            ar.saving()
                ? storeBuffer_[(sbHead_ + i) % storeBuffer_.size()]
                : storeBuffer_[i];
        ar.io(slot);
    }
    ar.io(lastStoreDrain_);
}

} // namespace piton::arch
