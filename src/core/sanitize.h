#ifndef FEDDA_CORE_SANITIZE_H_
#define FEDDA_CORE_SANITIZE_H_

/// Sanitizer-suppression attributes for the few functions whose unsigned
/// wraparound is the algorithm, not a bug. The fuzz build (FEDDA_FUZZ)
/// compiles with Clang's `-fsanitize=integer`, which flags *unsigned*
/// overflow too — legal C++, but usually a sign of length-arithmetic gone
/// wrong on the untrusted-bytes surface. Hash mixers are the deliberate
/// exception; annotate them rather than weakening the whole build.
///
/// GCC accepts no_sanitize only for sanitizers it implements, and
/// "unsigned-integer-overflow" is Clang-only, so the macro is empty there.
#if defined(__clang__)
#define FEDDA_NO_SANITIZE_UNSIGNED_WRAP \
  __attribute__((no_sanitize("unsigned-integer-overflow")))
#else
#define FEDDA_NO_SANITIZE_UNSIGNED_WRAP
#endif

#endif  // FEDDA_CORE_SANITIZE_H_
