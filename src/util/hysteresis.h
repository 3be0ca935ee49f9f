// Hysteresis primitives shared by every control loop that turns a noisy
// per-tick condition into a decision (header-only): the server's autoscaler
// and overload latch (serve/server.h) and the fleet prober's health state
// (fleet/fleet.h).  Pure state machines — no clocks, no threads — so a
// consumer's behaviour is unit-testable on synthetic traces.

#pragma once

namespace af::util {

// Fires once `patience` consecutive ticks saw the condition, then re-arms
// (the next firing needs another full run).  Any false tick starts the
// count over, so a condition oscillating faster than `patience` never fires.
class Streak {
 public:
  explicit Streak(int patience = 1) : patience_(patience) {}

  bool tick(bool cond) {
    if (!cond) {
      count_ = 0;
      return false;
    }
    if (++count_ < patience_) return false;
    count_ = 0;
    return true;
  }

  void reset() { count_ = 0; }

 private:
  int patience_;
  int count_ = 0;
};

// A two-state switch built from two Streaks: off -> on after `on_patience`
// consecutive on_signal ticks, on -> off after `off_patience` consecutive
// off_signal ticks.  A tick matching neither signal holds the state (the
// dead zone between the two thresholds) and breaks the pending streak.
class Latch {
 public:
  explicit Latch(int on_patience = 1, int off_patience = 1)
      : on_streak_(on_patience), off_streak_(off_patience) {}

  // Feeds one tick; returns the new state.
  bool update(bool on_signal, bool off_signal) {
    if (on_) {
      on_streak_.reset();
      on_ = !off_streak_.tick(off_signal);
    } else {
      off_streak_.reset();
      on_ = on_streak_.tick(on_signal);
    }
    return on_;
  }

  void reset() {
    on_ = false;
    on_streak_.reset();
    off_streak_.reset();
  }

 private:
  Streak on_streak_;
  Streak off_streak_;
  bool on_ = false;
};

}  // namespace af::util
