/* wait4(2) for the benchmark: OCaml's Unix reaps children without
   returning their resource usage, and peak RSS is only reported there. */

#include <errno.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/signals.h>

/* Reap [pid]; return (exit code, peak RSS in KiB).  A child killed by a
   signal reports 128 + the signal number, as a shell would. */
value e2e_wait4(value vpid)
{
  CAMLparam1(vpid);
  CAMLlocal1(res);
  pid_t pid = Int_val(vpid), r;
  int status = 0;
  struct rusage ru;
  caml_enter_blocking_section();
  do r = wait4(pid, &status, 0, &ru); while (r < 0 && errno == EINTR);
  caml_leave_blocking_section();
  if (r < 0) caml_failwith("wait4");
  res = caml_alloc_tuple(2);
  Store_field(res, 0, Val_int(WIFEXITED(status) ? WEXITSTATUS(status)
                                                : 128 + WTERMSIG(status)));
  Store_field(res, 1, Val_long(ru.ru_maxrss));
  CAMLreturn(res);
}
