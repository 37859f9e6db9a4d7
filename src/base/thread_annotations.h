// Clang Thread Safety Analysis macros (the SQZ_ prefix keeps them out of
// the way of any system headers that define the bare names).
//
// The simulator runs on one thread, yet its cross-host shared structures
// (DepCache, SnapshotStore, HostIndex, the event queue) self-lock.  These
// annotations let the compiler machine-check that lock discipline —
// `-Wthread-safety -Werror` on every clang build — so any future
// concurrency starts from proven invariants instead of discovering races
// at runtime.
//
// Under GCC (which has no thread-safety analysis) every macro expands to
// nothing; the annotated code compiles identically.
//
// Reference: https://clang.llvm.org/docs/ThreadSafetyAnalysis.html
#ifndef SQUEEZY_BASE_THREAD_ANNOTATIONS_H_
#define SQUEEZY_BASE_THREAD_ANNOTATIONS_H_

#if defined(__clang__)
#define SQZ_THREAD_ANNOTATION_ATTRIBUTE__(x) __attribute__((x))
#else
#define SQZ_THREAD_ANNOTATION_ATTRIBUTE__(x)  // no-op
#endif

// Class attribute: the type is a lockable capability ("mutex").
#define SQZ_CAPABILITY(x) SQZ_THREAD_ANNOTATION_ATTRIBUTE__(capability(x))

// Class attribute: RAII object that acquires on construction / releases
// on destruction (MutexLock).
#define SQZ_SCOPED_CAPABILITY SQZ_THREAD_ANNOTATION_ATTRIBUTE__(scoped_lockable)

// Data member attribute: reads and writes require holding `x`.
#define SQZ_GUARDED_BY(x) SQZ_THREAD_ANNOTATION_ATTRIBUTE__(guarded_by(x))

// Data member attribute: the pointed-to data is guarded by `x` (the
// pointer itself may be read freely).
#define SQZ_PT_GUARDED_BY(x) SQZ_THREAD_ANNOTATION_ATTRIBUTE__(pt_guarded_by(x))

// Function attribute: caller must hold the capabilities (exclusively).
#define SQZ_REQUIRES(...) \
  SQZ_THREAD_ANNOTATION_ATTRIBUTE__(requires_capability(__VA_ARGS__))

// Function attribute: caller must hold the capabilities (shared).
#define SQZ_REQUIRES_SHARED(...) \
  SQZ_THREAD_ANNOTATION_ATTRIBUTE__(requires_shared_capability(__VA_ARGS__))

// Function attribute: acquires the capability (exclusively / shared).
#define SQZ_ACQUIRE(...) \
  SQZ_THREAD_ANNOTATION_ATTRIBUTE__(acquire_capability(__VA_ARGS__))
#define SQZ_ACQUIRE_SHARED(...) \
  SQZ_THREAD_ANNOTATION_ATTRIBUTE__(acquire_shared_capability(__VA_ARGS__))

// Function attribute: releases the capability.
#define SQZ_RELEASE(...) \
  SQZ_THREAD_ANNOTATION_ATTRIBUTE__(release_capability(__VA_ARGS__))
#define SQZ_RELEASE_SHARED(...) \
  SQZ_THREAD_ANNOTATION_ATTRIBUTE__(release_shared_capability(__VA_ARGS__))

// Function attribute: acquires on success (`b` = returned success value).
#define SQZ_TRY_ACQUIRE(...) \
  SQZ_THREAD_ANNOTATION_ATTRIBUTE__(try_acquire_capability(__VA_ARGS__))

// Function attribute: caller must NOT hold the capabilities (deadlock
// guard for public entry points of self-locking classes).
#define SQZ_EXCLUDES(...) SQZ_THREAD_ANNOTATION_ATTRIBUTE__(locks_excluded(__VA_ARGS__))

// Function attribute: returns a reference to the named capability.
#define SQZ_RETURN_CAPABILITY(x) SQZ_THREAD_ANNOTATION_ATTRIBUTE__(lock_returned(x))

// Lock-ordering declarations (documented acquisition order between
// capability members; clang checks declared pairs).
#define SQZ_ACQUIRED_BEFORE(...) \
  SQZ_THREAD_ANNOTATION_ATTRIBUTE__(acquired_before(__VA_ARGS__))
#define SQZ_ACQUIRED_AFTER(...) \
  SQZ_THREAD_ANNOTATION_ATTRIBUTE__(acquired_after(__VA_ARGS__))

// Function attribute: opt out of the analysis (use sparingly; every use
// needs a written justification, same policy as the determinism lint's
// inline escape hatch).
#define SQZ_NO_THREAD_SAFETY_ANALYSIS \
  SQZ_THREAD_ANNOTATION_ATTRIBUTE__(no_thread_safety_analysis)

#endif  // SQUEEZY_BASE_THREAD_ANNOTATIONS_H_
