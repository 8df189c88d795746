/**
 * @file
 * Per-thread programming interface for simulated workloads.
 *
 * Workloads are coroutines: every shared-memory access is awaited, the
 * CPU model decides when it completes, and the coroutine resumes with
 * the loaded value (reads really return data from the functional
 * backing store, so kernels compute real results).
 *
 * Load/store sites are identified by a synthetic PC derived from
 * std::source_location: every static access site in a kernel gets a
 * stable, unique instruction address, which is exactly what I-detection
 * stride prefetching keys on (the paper requires read-miss requests to
 * carry the load's program counter).
 */

#ifndef PSIM_APPS_CTX_HH
#define PSIM_APPS_CTX_HH

#include <coroutine>
#include <cstring>
#include <source_location>

#include "check/access_log.hh"
#include "mem/backing_store.hh"
#include "sim/random.hh"
#include "sys/cpu.hh"
#include "sys/machine.hh"

namespace psim::apps
{

/**
 * Stable synthetic PC for the access site at @p line:@p column of
 * @p file (word-aligned). Only the file's basename is hashed, so PCs
 * do not depend on the directory the sources were built from.
 */
inline Pc
pcOf(const char *file, std::uint_least32_t line, std::uint_least32_t column)
{
    for (const char *p = file; *p; ++p) {
        if (*p == '/')
            file = p + 1;
    }
    // FNV-1a over the basename, mixed with line and column. Shifted
    // left so PCs look word-aligned, as real instruction addresses do.
    std::uint64_t h = 1469598103934665603ULL;
    for (const char *p = file; *p; ++p) {
        h ^= static_cast<unsigned char>(*p);
        h *= 1099511628211ULL;
    }
    h ^= static_cast<std::uint64_t>(line) * 2654435761ULL;
    h ^= static_cast<std::uint64_t>(column) * 40503ULL;
    return static_cast<Pc>(h << 2);
}

/** Stable synthetic PC for a static access site (word-aligned). */
inline Pc
pcOf(const std::source_location &loc)
{
    return pcOf(loc.file_name(), loc.line(), loc.column());
}

class ThreadCtx
{
  public:
    ThreadCtx(Machine &m, NodeId tid, unsigned nthreads)
        : _m(m),
          _cpu(m.node(tid).cpu()),
          _tid(tid),
          _nthreads(nthreads),
          _rng(m.cfg().seed ^ (0x9e3779b97f4a7c15ULL * (tid + 1)))
    {
    }

    unsigned tid() const { return _tid; }
    unsigned nthreads() const { return _nthreads; }
    Machine &machine() { return _m; }
    BackingStore &store() { return _m.store(); }
    Rng &rng() { return _rng; }

    // ---- awaitable shared-memory operations ----

    template <typename T>
    struct ReadOp
    {
        ThreadCtx &ctx;
        Addr addr;
        Pc pc;

        bool await_ready() const noexcept { return false; }

        void
        await_suspend(std::coroutine_handle<> h)
        {
            ctx._cpu.issueLoad(addr, pc, h);
        }

        T
        await_resume() const
        {
            return ctx.commitLoad<T>(addr, ctx.store().load<T>(addr));
        }
    };

    struct WriteOp
    {
        ThreadCtx &ctx;
        Addr addr;
        Pc pc;

        bool await_ready() const noexcept { return false; }

        void
        await_suspend(std::coroutine_handle<> h)
        {
            ctx._cpu.issueStore(addr, pc, h);
        }

        void await_resume() const noexcept {}
    };

    struct LockOp
    {
        ThreadCtx &ctx;
        Addr addr;

        bool await_ready() const noexcept { return false; }

        void
        await_suspend(std::coroutine_handle<> h)
        {
            ctx._cpu.issueLock(addr, h);
        }

        void await_resume() const noexcept {}
    };

    struct UnlockOp
    {
        ThreadCtx &ctx;
        Addr addr;

        bool await_ready() const noexcept { return false; }

        void
        await_suspend(std::coroutine_handle<> h)
        {
            ctx._cpu.issueUnlock(addr, h);
        }

        void await_resume() const noexcept {}
    };

    struct BarrierOp
    {
        ThreadCtx &ctx;
        Addr addr;
        std::uint32_t participants;

        bool await_ready() const noexcept { return false; }

        void
        await_suspend(std::coroutine_handle<> h)
        {
            ctx._cpu.issueBarrier(addr, participants, h);
        }

        void await_resume() const noexcept {}
    };

    struct ThinkOp
    {
        ThreadCtx &ctx;
        Tick cycles;

        bool await_ready() const noexcept { return false; }

        void
        await_suspend(std::coroutine_handle<> h)
        {
            ctx._cpu.think(cycles, h);
        }

        void await_resume() const noexcept {}
    };

    /** Read a T from shared memory. */
    template <typename T>
    ReadOp<T>
    read(Addr addr,
         const std::source_location &loc = std::source_location::current())
    {
        return ReadOp<T>{*this, addr, pcOf(loc)};
    }

    /** Write a T to shared memory (value is bound at issue time). */
    template <typename T>
    WriteOp
    write(Addr addr, const T &value,
          const std::source_location &loc =
                  std::source_location::current())
    {
        bool drop = false;
#ifdef PSIM_TEST_HOOKS
        const TestHooks &hooks = _m.cfg().testHooks;
        if (hooks.dropStorePeriod &&
            ++_storesCommitted % hooks.dropStorePeriod == 0)
            drop = true;
#endif
        if (!drop)
            store().store<T>(addr, value);
        record(check::AccessRecord::Kind::Write, addr, &value,
               sizeof(T));
        return WriteOp{*this, addr, pcOf(loc)};
    }

    /** Acquire the queue-based lock at @p addr. */
    LockOp lock(Addr addr) { return LockOp{*this, addr}; }

    /** Release the lock (waits for outstanding stores first: RC). */
    UnlockOp unlock(Addr addr) { return UnlockOp{*this, addr}; }

    /** Global barrier over all workload threads. */
    BarrierOp
    barrier(Addr addr)
    {
        return BarrierOp{*this, addr, _nthreads};
    }

    /** Model @p cycles of private computation (always FLC hits). */
    ThinkOp think(Tick cycles) { return ThinkOp{*this, cycles}; }

  private:
    /**
     * The value-commit point of a load: the value the coroutine is
     * about to consume. Applies the corrupt-read fault hook (so the
     * program really computes with the corrupted value, exactly like a
     * broken machine would) and then records what was consumed.
     */
    template <typename T>
    T
    commitLoad(Addr addr, T v)
    {
#ifdef PSIM_TEST_HOOKS
        const TestHooks &hooks = _m.cfg().testHooks;
        if (hooks.corruptReadPeriod &&
            ++_loadsCommitted % hooks.corruptReadPeriod == 0) {
            auto *bytes = reinterpret_cast<std::uint8_t *>(&v);
            bytes[0] ^= 0x01;
        }
#endif
        record(check::AccessRecord::Kind::Read, addr, &v, sizeof(T));
        return v;
    }

    /** Stream one committed access into the machine's commit sink. */
    void
    record(check::AccessRecord::Kind kind, Addr addr, const void *value,
           std::size_t len)
    {
        if (!_m.commitSink())
            return;
        psim_assert(len <= sizeof(check::AccessRecord::value),
                "access wider than an AccessRecord value");
        check::AccessRecord rec;
        // Stamp from the owning node's queue: under the sharded engine
        // the global queue's clock does not advance, and the record's
        // tick is this node's position in the canonical merge order.
        rec.tick = _m.eqOf(_tid).now();
        rec.node = _tid;
        rec.kind = kind;
        rec.len = static_cast<std::uint8_t>(len);
        rec.addr = addr;
        std::memcpy(rec.value, value, len);
        _m.commitAccess(rec);
    }

    Machine &_m;
    Cpu &_cpu;
    NodeId _tid;
    unsigned _nthreads;
    Rng _rng;
    /** Fault-hook opportunity counters (see MachineConfig::TestHooks). */
    std::uint64_t _loadsCommitted = 0;
    std::uint64_t _storesCommitted = 0;
};

} // namespace psim::apps

#endif // PSIM_APPS_CTX_HH
