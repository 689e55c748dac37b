#ifndef SWANDB_COMMON_MUTEX_H_
#define SWANDB_COMMON_MUTEX_H_

#include <condition_variable>
#include <mutex>

#include "common/thread_annotations.h"

namespace swan {

// The project's documented lock-order hierarchy. A thread may acquire a
// mutex only while every mutex it already holds has a STRICTLY GREATER
// rank — i.e. locks are taken walking down this table, never up or
// sideways. Two mutexes of equal rank therefore must never nest (the
// per-queue and per-batch exec locks are each held one at a time).
//
//   kServeService     serve::QueryService::mutex_   (scheduler state)
//   kServeTurnstile   serve::QueryService::turn_mutex_ (execution order;
//                     acquired under the service mutex in Start(), which
//                     pins the service > turnstile direction in code)
//   kServeCache       serve::ResultCache
//   kExecPoolRegistry exec global pool pointer
//   kExecWake         exec::ThreadPool sleep/wake latch
//   kExecQueue        exec::ThreadPool per-worker deques
//   kExecBatch        exec ParallelFor batch completion latch
//   kColumnLoad       colstore::Column cache-load mutex (holds across the
//                     buffer-pool/disk reads that stream the column in)
//   kBufferPool       storage::BufferPool page table
//   kNetwork          net::NetworkModel link accounting (acquired above
//                     the per-node disks: shipping a message may charge
//                     the network and then read from the destination
//                     node's disk, so network > disk is the pinned
//                     direction — see tests/scaleout_test.cc)
//   kStorageDisk      storage::SimulatedDisk model state
//   kExecLane         exec per-lane CPU ledger
//   kTelemetry        obs::Telemetry fleet-wide query log / windowed
//                     metrics / profile aggregator (near-leaf: acquired
//                     under the serve turnstile and the shell, acquires
//                     nothing — two Telemetry bundles never nest; merges
//                     snapshot the source before locking the target)
//   kMetrics          obs::MetricsRegistry name table (leaf: acquired
//                     under everything, acquires nothing)
//
// The runtime checker (debug contract, compiled in when
// SWAN_LOCK_RANK_CHECKS is defined, which is the default build) tracks a
// thread-local held-lock stack and aborts on any acquisition that
// violates the table above or re-enters a held mutex — deterministic
// deadlock detection that fires on the first bad nesting in any test,
// without needing TSan or an actual interleaving.
enum class LockRank : int {
  kServeService = 1200,
  kServeTurnstile = 1100,
  kServeCache = 1000,
  kExecPoolRegistry = 900,
  kExecWake = 800,
  kExecQueue = 700,
  kExecBatch = 600,
  kColumnLoad = 500,
  kBufferPool = 400,
  kNetwork = 350,
  kStorageDisk = 300,
  kExecLane = 200,
  kTelemetry = 150,
  kMetrics = 100,
};

// Number of LockRank values above. Ranks strictly decrease along a
// thread's held-lock stack, so no thread ever holds more mutexes than
// this at once.
inline constexpr int kLockRankCount = 14;

class CondVar;

// Annotated, ranked mutex. Thin wrapper over std::mutex: the annotation
// makes guarded fields statically checkable under clang, the rank makes
// the acquisition order dynamically checkable everywhere. All locking in
// src/, tests/ and bench/ must go through this wrapper (enforced by
// tools/swan_lint.py rule `raw-mutex`).
class SWAN_CAPABILITY("mutex") Mutex {
 public:
  constexpr Mutex(LockRank rank, const char* name)
      : rank_(rank), name_(name) {}

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() SWAN_ACQUIRE();
  void Unlock() SWAN_RELEASE();

  LockRank rank() const { return rank_; }
  const char* name() const { return name_; }

 private:
  friend class CondVar;

  std::mutex mu_;
  const LockRank rank_;
  const char* const name_;
};

// RAII lock with explicit Unlock/Lock for the drop-the-lock-around-IO
// pattern (storage::BufferPool) and for handing off before a notify
// (serve::QueryService). The destructor releases only if still held.
class SWAN_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) SWAN_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }

  ~MutexLock() SWAN_RELEASE() {
    if (held_) mu_->Unlock();
  }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  // Releases early (e.g. before a condition-variable notify). The
  // destructor then does nothing.
  void Unlock() SWAN_RELEASE() {
    mu_->Unlock();
    held_ = false;
  }

  // Re-acquires after an explicit Unlock (the buffer-pool miss path).
  void Lock() SWAN_ACQUIRE() {
    mu_->Lock();
    held_ = true;
  }

  Mutex* mutex() const { return mu_; }
  bool held() const { return held_; }

 private:
  Mutex* const mu_;
  bool held_ = true;
};

// Condition variable bound to swan::Mutex. Wait atomically releases the
// underlying std::mutex and re-acquires it before returning; the rank
// checker's held-lock stack deliberately keeps the mutex listed for the
// duration (the blocked thread acquires nothing meanwhile, and on return
// the stack again matches reality). No predicate overload on purpose:
// spell the loop `while (!cond) cv.Wait(lock);` in the caller, where the
// static analysis can see the guarded reads under the held lock.
class CondVar {
 public:
  CondVar() = default;

  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  // Requires `lock` held; spurious wakeups possible, loop on the
  // condition.
  void Wait(MutexLock& lock);

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

// True when the runtime lock-rank checker was compiled in (tests use this
// to skip the violation death tests in unchecked builds).
bool LockRankChecksEnabled();

// Depth of the calling thread's held-lock stack; always 0 when the
// checker is compiled out. Test-only observability.
int HeldLockCountForTesting();

}  // namespace swan

#endif  // SWANDB_COMMON_MUTEX_H_
