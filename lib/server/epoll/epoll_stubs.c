/* Readiness-polling stubs for the server's accept loop: epoll(7) on
   Linux, poll(2) everywhere, plus the loop's non-blocking send.  Both backends compile wherever they
   exist (the poll fallback is always present), so the OCaml side can
   select one at runtime and tests exercise the fallback even on hosts
   that have epoll.

   All fd arguments are immediates (Unix.file_descr is an int on
   POSIX), so they are extracted before the runtime lock is released
   around the blocking wait. */
#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>
#include <caml/unixsupport.h>

#include <errno.h>
#include <poll.h>
#include <stdlib.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#ifndef MSG_NOSIGNAL
#define MSG_NOSIGNAL 0 /* the daemon ignores SIGPIPE anyway */
#endif

#if defined(__linux__)
#define PTI_HAVE_EPOLL 1
#include <sys/epoll.h>
#endif

CAMLprim value pti_epoll_available(value unit)
{
  (void)unit;
#ifdef PTI_HAVE_EPOLL
  return Val_true;
#else
  return Val_false;
#endif
}

#ifdef PTI_HAVE_EPOLL

CAMLprim value pti_epoll_create(value unit)
{
  int fd;
  (void)unit;
  fd = epoll_create1(EPOLL_CLOEXEC);
  if (fd < 0)
    caml_failwith("epoll_create1 failed");
  return Val_int(fd);
}

/* Level-triggered readable or writable interest; ERR/HUP are always
   reported and the owner discovers them through the next read() or
   send(). [vop] is 0 to add, 1 to modify. */
CAMLprim value pti_epoll_ctl(value vep, value vfd, value vwrite, value vop)
{
  struct epoll_event ev;
  int op = Int_val(vop) ? EPOLL_CTL_MOD : EPOLL_CTL_ADD;
  memset(&ev, 0, sizeof(ev));
  ev.events = Bool_val(vwrite) ? EPOLLOUT : EPOLLIN;
  ev.data.fd = Int_val(vfd);
  if (epoll_ctl(Int_val(vep), op, Int_val(vfd), &ev) != 0
      && !(op == EPOLL_CTL_ADD && errno == EEXIST))
    caml_failwith(op == EPOLL_CTL_ADD ? "epoll_ctl(ADD) failed"
                                      : "epoll_ctl(MOD) failed");
  return Val_unit;
}

CAMLprim value pti_epoll_del(value vep, value vfd)
{
  struct epoll_event ev; /* non-NULL event for pre-2.6.9 kernels */
  memset(&ev, 0, sizeof(ev));
  /* Removing an fd that is not registered (or already closed) is a
     no-op: deregistration must be idempotent for the sweep paths. */
  (void)epoll_ctl(Int_val(vep), EPOLL_CTL_DEL, Int_val(vfd), &ev);
  return Val_unit;
}

CAMLprim value pti_epoll_wait_stub(value vep, value vtimeout, value vmax)
{
  CAMLparam3(vep, vtimeout, vmax);
  CAMLlocal1(arr);
  int ep = Int_val(vep);
  int timeout = Int_val(vtimeout);
  int max = Int_val(vmax);
  int n, i;
  struct epoll_event *evs;
  if (max < 1)
    max = 1;
  if (max > 4096)
    max = 4096;
  evs = malloc((size_t)max * sizeof(*evs));
  if (evs == NULL)
    caml_failwith("epoll_wait: out of memory");
  caml_enter_blocking_section();
  n = epoll_wait(ep, evs, max, timeout);
  caml_leave_blocking_section();
  if (n < 0) {
    int err = errno;
    free(evs);
    if (err == EINTR)
      CAMLreturn(Atom(0)); /* no events; let OCaml signal handlers run */
    caml_failwith("epoll_wait failed");
  }
  arr = caml_alloc(n, 0);
  for (i = 0; i < n; i++)
    Store_field(arr, i, Val_int(evs[i].data.fd));
  free(evs);
  CAMLreturn(arr);
}

#else /* !PTI_HAVE_EPOLL: the epoll entry points exist but refuse */

CAMLprim value pti_epoll_create(value unit)
{
  (void)unit;
  caml_failwith("epoll unavailable on this platform");
}

CAMLprim value pti_epoll_ctl(value vep, value vfd, value vwrite, value vop)
{
  (void)vep;
  (void)vfd;
  (void)vwrite;
  (void)vop;
  caml_failwith("epoll unavailable on this platform");
}

CAMLprim value pti_epoll_del(value vep, value vfd)
{
  (void)vep;
  (void)vfd;
  caml_failwith("epoll unavailable on this platform");
}

CAMLprim value pti_epoll_wait_stub(value vep, value vtimeout, value vmax)
{
  (void)vep;
  (void)vtimeout;
  (void)vmax;
  caml_failwith("epoll unavailable on this platform");
}

#endif

/* poll(2) backend: the caller passes the full fd set each wait, with
   a parallel array of interests (0 readable, 1 writable); the OCaml
   side keeps both and rebuilds them only on a membership or interest
   change. */
CAMLprim value pti_poll_stub(value vfds, value vwrite, value vtimeout)
{
  CAMLparam3(vfds, vwrite, vtimeout);
  CAMLlocal1(arr);
  int n = (int)Wosize_val(vfds);
  int timeout = Int_val(vtimeout);
  int i, rc, nready, j;
  struct pollfd *pfds = NULL;
  if (n > 0) {
    pfds = malloc((size_t)n * sizeof(*pfds));
    if (pfds == NULL)
      caml_failwith("poll: out of memory");
    for (i = 0; i < n; i++) {
      pfds[i].fd = Int_val(Field(vfds, i));
      pfds[i].events = Int_val(Field(vwrite, i)) ? POLLOUT : POLLIN;
      pfds[i].revents = 0;
    }
  }
  caml_enter_blocking_section();
  rc = poll(pfds, (nfds_t)n, timeout);
  caml_leave_blocking_section();
  if (rc < 0) {
    int err = errno;
    free(pfds);
    if (err == EINTR)
      CAMLreturn(Atom(0));
    caml_failwith("poll failed");
  }
  /* ERR/HUP/NVAL all count as ready: the owner must read() or send()
     (or find the bad fd) and reap the connection. */
#define PTI_READY (POLLIN | POLLOUT | POLLERR | POLLHUP | POLLNVAL)
  nready = 0;
  for (i = 0; i < n; i++)
    if (pfds[i].revents & PTI_READY)
      nready++;
  arr = caml_alloc(nready, 0);
  j = 0;
  for (i = 0; i < n; i++)
    if (pfds[i].revents & PTI_READY)
      Store_field(arr, j++, Val_int(pfds[i].fd));
  free(pfds);
  CAMLreturn(arr);
}

/* One send(2) that never blocks, whatever the socket's own mode: the
   accept loop writes replies through it. Returns the bytes accepted,
   or -1 when the socket buffer is full (EAGAIN); other errors raise
   Unix_error. MSG_NOSIGNAL: a vanished peer is an EPIPE, not a
   signal. The runtime lock is kept: the call cannot block, and the
   OCaml buffer must not move under it. */
CAMLprim value pti_send_nonblock(value vfd, value vbuf, value voff, value vlen)
{
  ssize_t n;
  do
    n = send(Int_val(vfd), (const char *)Bytes_val(vbuf) + Long_val(voff),
             (size_t)Long_val(vlen), MSG_DONTWAIT | MSG_NOSIGNAL);
  while (n < 0 && errno == EINTR);
  if (n < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK)
      return Val_long(-1);
    caml_uerror("send", Nothing);
  }
  return Val_long(n);
}
