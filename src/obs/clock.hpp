// Injectable trace clock.
//
// Spans are stamped by a process-global clock function. The default is
// the steady clock (nanoseconds since the first call), which is what a
// production trace wants. Tests install the *logical* clock — a plain
// monotonically increasing counter — so two identical runs produce
// bit-identical timestamps and trace files can be compared or checked
// in as goldens.
#pragma once

#include <cstdint>

namespace dls::obs {

/// Current trace time from whichever clock is installed.
std::uint64_t now_ns() noexcept;

/// Installs the wall (steady) clock — the default.
void use_steady_clock() noexcept;

/// Installs the deterministic logical clock and resets it to zero.
/// Each now_ns() call returns the next integer tick; with a fixed call
/// sequence the timestamps are reproducible bit-for-bit.
void use_logical_clock() noexcept;

}  // namespace dls::obs
