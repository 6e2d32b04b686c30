#ifndef DIABLO_CORE_INTERRUPT_HH_
#define DIABLO_CORE_INTERRUPT_HH_

/**
 * @file
 * Cooperative run interruption for unattended operation.
 *
 * Long unattended runs must never die artifact-less: a SIGINT from an
 * operator, a SIGTERM from a batch scheduler, or a watchdog trip all
 * funnel into one process-wide *request* flag that the experiment
 * drivers poll between engine windows and answer by finalizing a
 * partial artifact before exiting
 * with a distinct code.  The handlers only ever store into a lock-free
 * atomic — async-signal-safe by construction — and re-raising the
 * signal (a second Ctrl-C) restores the default disposition so a wedged
 * finalizer can still be killed the ordinary way.
 *
 * Exit-code contract (shared by diablo_run, diablo_sweep, CI, and the
 * tests — keep DESIGN.md §10's table in sync):
 *   0                   clean run
 *   1                   failure (fatal(), determinism mismatch)
 *   2                   usage error
 *   kExitSweepPartial   sweep completed but some grid points failed
 *   kExitInterrupted    run interrupted by signal; partial artifact
 *                       was finalized
 *   kExitWatchdog       watchdog (deadline/stall) aborted the run
 */

namespace diablo {
namespace core {

/** Sweep finished but one or more grid points failed or timed out. */
constexpr int kExitSweepPartial = 3;
/** Run was interrupted (SIGINT/SIGTERM) and finalized a partial
 *  artifact. */
constexpr int kExitInterrupted = 75;
/** The run watchdog (wall-clock deadline or progress stall) fired. */
constexpr int kExitWatchdog = 76;

/**
 * Interrupt causes, for interruptCause().  Signals store their signal
 * number; programmatic requests store one of these (negative so they
 * can never collide with a signo).
 */
constexpr int kCauseWatchdogDeadline = -1;
constexpr int kCauseWatchdogStall = -2;
/** A peer engine process of a coupled run was interrupted or died. */
constexpr int kCausePeer = -3;

/**
 * Install SIGINT/SIGTERM handlers that record the signal and request a
 * cooperative stop.  Idempotent.  The second delivery of the same
 * signal falls through to the default disposition (the handler is
 * installed without SA_RESETHAND but re-raises after restoring the
 * default), so a finalizer that itself hangs cannot make the process
 * unkillable.
 */
void installInterruptHandlers();

/** True once a stop has been requested (signal or programmatic). */
bool interruptRequested();

/**
 * Why the stop was requested: a positive signal number, a negative
 * kCause* constant, or 0 when no request is pending.  First request
 * wins; later ones are ignored.
 */
int interruptCause();

/** Human-readable cause ("SIGTERM", "watchdog-stall", ...). */
const char *interruptCauseName();

/** Programmatic request (watchdog trip); async-signal-safe. */
void requestInterrupt(int cause);

/** Test hook: clear any pending request. */
void clearInterrupt();

} // namespace core
} // namespace diablo

#endif // DIABLO_CORE_INTERRUPT_HH_
