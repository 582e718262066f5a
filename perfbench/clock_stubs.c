/* Monotonic nanosecond clock for the benchmark's timings. */
#include <time.h>
#include <caml/mlvalues.h>

value perfbench_now_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return Val_long((intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec);
}

#ifdef __linux__
#include <sys/prctl.h>
#endif

/* How late the kernel may end this thread's timed waits (Linux: 50 µs
   by default); elsewhere a no-op. */
value perfbench_set_timer_slack_ns(value ns)
{
#ifdef __linux__
  prctl(PR_SET_TIMERSLACK, (unsigned long)Long_val(ns), 0, 0, 0);
#else
  (void)ns;
#endif
  return Val_unit;
}
