/* LD_PRELOAD sampling profiler for hosts without `perf`.
 *
 *   gcc -O2 -shared -fPIC -o /root/scratch/sigprof.so tools/sigprof/sigprof.c
 *   LD_PRELOAD=/root/scratch/sigprof.so SIGPROF_OUT=/root/scratch/prof <program> <args>
 *
 * ITIMER_PROF fires every PERIOD_US microseconds of
 * process CPU time; the kernel delivers SIGPROF to the thread that was
 * running, and the handler records that thread's id, name and program
 * counter. At exit the samples and /proc/self/maps go to
 * $SIGPROF_OUT.<pid> for tools/sigprof/report.py. No stack is walked: a
 * sample belongs to the innermost function, which in a release build
 * with debuginfo still names the inlined chain above it.
 */
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/prctl.h>
#include <sys/syscall.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define PERIOD_US 2000
#define MAX_SAMPLES (1u << 20)
#define NAMES 65536u

static struct sample { unsigned long pc; int tid; } *samples;
static unsigned long taken;
static char (*names)[16]; /* thread name by tid % NAMES, read on first sight */

static void on_prof(int sig, siginfo_t *info, void *context) {
    (void)sig, (void)info;
    unsigned long i = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (i >= MAX_SAMPLES) return;
    int tid = (int)syscall(SYS_gettid);
    samples[i].pc = (unsigned long)((ucontext_t *)context)->uc_mcontext.gregs[REG_RIP];
    samples[i].tid = tid;
    if (!names[tid % NAMES][0]) prctl(PR_GET_NAME, names[tid % NAMES]);
}

static void dump(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *prefix = getenv("SIGPROF_OUT");
    char path[512], line[1024];
    snprintf(path, sizeof path, "%s.%d", prefix ? prefix : "sigprof", (int)getpid());
    FILE *out = fopen(path, "w"), *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps) return;
    while (fgets(line, sizeof line, maps)) fprintf(out, "M %s", line);
    unsigned long n = taken < MAX_SAMPLES ? taken : MAX_SAMPLES;
    for (unsigned long i = 0; i < n; i++)
        fprintf(out, "S %s\t%lx\n", names[samples[i].tid % NAMES], samples[i].pc);
    fclose(out);
}

__attribute__((constructor)) static void start(void) {
    samples = calloc(MAX_SAMPLES, sizeof *samples);
    names = calloc(NAMES, sizeof *names);
    if (!samples || !names) return;
    struct sigaction action;
    memset(&action, 0, sizeof action);
    action.sa_sigaction = on_prof;
    action.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &action, NULL);
    struct itimerval every = {{0, PERIOD_US}, {0, PERIOD_US}};
    setitimer(ITIMER_PROF, &every, NULL);
    atexit(dump);
}
