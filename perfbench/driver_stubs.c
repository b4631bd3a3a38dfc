#define _GNU_SOURCE
#include <poll.h>
#include <sched.h>
#include <sys/prctl.h>
#include <time.h>
#include <errno.h>
#include <stdint.h>
#include <string.h>
#include <unistd.h>
#include <caml/mlvalues.h>

/* Give the CPU to any runnable thread queued on it, then come back. */
value perfbench_sched_yield(value unit)
{
  (void)unit;
  sched_yield();
  return Val_unit;
}

/* Block until one of two descriptors (they may be the same) is readable or [ns]
   nanoseconds have passed, whichever comes first.  Timer slack is cut
   to 1 ns once, so the timeout is kept to within the wake-up latency. */
value perfbench_wait_readable(value fd1, value fd2, value ns)
{
  static int slack_set = 0;
  struct pollfd p[2];
  struct timespec ts;
  long t = Long_val(ns);
  if (!slack_set) {
    prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
    slack_set = 1;
  }
  p[0].fd = Int_val(fd1);
  p[0].events = POLLIN;
  p[1].fd = Int_val(fd2);
  p[1].events = POLLIN;
  ts.tv_sec = t / 1000000000L;
  ts.tv_nsec = t % 1000000000L;
  ppoll(p, 2, &ts, NULL);
  return Val_unit;
}

/* read(2) on a non-blocking descriptor straight into [buf] at [ofs],
   without raising: the byte count, 0 at end of file, -1 when nothing
   is available yet, -2 on any other error.  Unix.read would raise (and
   allocate) an EAGAIN exception on every empty poll. */
value perfbench_read(value fd, value buf, value ofs, value len)
{
  ssize_t n = read(Int_val(fd), Bytes_val(buf) + Long_val(ofs), Long_val(len));
  if (n >= 0) return Val_long(n);
  if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return Val_long(-1);
  return Val_long(-2);
}

/* CLOCK_MONOTONIC in nanoseconds, as an immediate integer. */
value perfbench_now_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return Val_long((long)ts.tv_sec * 1000000000L + ts.tv_nsec);
}

/* Whether [n] bytes of [a] at [ao] equal those of [b] at [bo]. */
value perfbench_bytes_equal(value a, value ao, value b, value bo, value n)
{
  return Val_bool(memcmp(String_val(a) + Long_val(ao), String_val(b) + Long_val(bo),
                         Long_val(n)) == 0);
}

/* Whether the binary frame of [n] bytes at [off] carries a correct
   CRC32 (IEEE, reflected, as the wire format defines it) over all but
   its 4-byte little-endian trailer. */
value perfbench_frame_crc_ok(value buf, value off, value n)
{
  static uint32_t table[256];
  static int ready = 0;
  const unsigned char *p = (const unsigned char *)String_val(buf) + Long_val(off);
  long len = Long_val(n) - 4;
  uint32_t c = 0xffffffffu, want;
  if (!ready) {
    for (uint32_t i = 0; i < 256; i++) {
      uint32_t x = i;
      for (int k = 0; k < 8; k++) x = (x & 1) ? (x >> 1) ^ 0xedb88320u : x >> 1;
      table[i] = x;
    }
    ready = 1;
  }
  for (long i = 0; i < len; i++) c = (c >> 8) ^ table[(c ^ p[i]) & 0xff];
  want = (uint32_t)p[len] | ((uint32_t)p[len + 1] << 8) | ((uint32_t)p[len + 2] << 16)
         | ((uint32_t)p[len + 3] << 24);
  return Val_bool(~c == want);
}
