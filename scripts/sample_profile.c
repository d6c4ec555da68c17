// An LD_PRELOAD stack sampler for frame-pointer builds; see
// scripts/sample_profile.py, which builds it, runs a program under it and
// folds the samples into shares.
//
//   gcc -O2 -shared -fPIC -o sample_profile.so scripts/sample_profile.c
//   LD_PRELOAD=$PWD/sample_profile.so PROGRAM ARGS...
//
// Every tick of the process CPU-time timer (SIGPROF) records the
// interrupted pc, the word at the stack pointer (the leaf's return address
// when the leaf, like libm's, keeps no frame pointer, so its caller is not
// in the chain) and the frame-pointer chain. Memory is read with
// process_vm_readv, so a stale frame pointer ends the walk instead of
// faulting. At exit the process writes sample_profile.<pid>.txt to its
// working directory: a copy of /proc/self/maps, then one line of hex
// addresses per sample. x86_64 only.
#ifndef __x86_64__
#error "sample_profile: x86_64 only"
#endif
#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/time.h>
#include <sys/uio.h>
#include <ucontext.h>
#include <unistd.h>

enum { DEPTH = 48, SLOT = DEPTH + 3, MAX_SAMPLES = 1 << 16 };

// Sample i is buf[i * SLOT ..]: frame count, pc, leaf return, frames.
static uintptr_t *buf;
static unsigned taken;

static int peek(uintptr_t addr, void *out, size_t n) {
    struct iovec here = {out, n}, there = {(void *)addr, n};
    return process_vm_readv(getpid(), &here, 1, &there, 1, 0) == (ssize_t)n;
}

static void on_prof(int sig, siginfo_t *info, void *ctx) {
    (void)sig;
    (void)info;
    unsigned i = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (i >= MAX_SAMPLES)
        return;
    mcontext_t *m = &((ucontext_t *)ctx)->uc_mcontext;
    uintptr_t *s = buf + (size_t)i * SLOT, fp = m->gregs[REG_RBP];
    s[1] = m->gregs[REG_RIP];
    s[2] = 0;
    peek(m->gregs[REG_RSP], &s[2], sizeof s[2]);
    unsigned d = 0;
    while (d < DEPTH && fp && !(fp & 7)) {
        uintptr_t rec[2]; // saved frame pointer, return address
        if (!peek(fp, rec, sizeof rec) || !rec[1])
            break;
        s[3 + d++] = rec[1];
        if (rec[0] <= fp) // callers' frames lie higher on the stack
            break;
        fp = rec[0];
    }
    s[0] = d;
}

__attribute__((constructor)) static void start(void) {
    buf = mmap(0, (size_t)MAX_SAMPLES * SLOT * sizeof *buf, PROT_READ | PROT_WRITE,
               MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (buf == MAP_FAILED)
        return;
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &sa, 0);
    struct itimerval every_ms = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every_ms, 0);
}

__attribute__((destructor)) static void stop(void) {
    if (buf == MAP_FAILED || !buf)
        return;
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, 0);
    char path[64];
    snprintf(path, sizeof path, "sample_profile.%d.txt", (int)getpid());
    FILE *out = fopen(path, "w"), *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps)
        return;
    char line[4096];
    while (fgets(line, sizeof line, maps))
        fprintf(out, "map %s", line);
    fclose(maps);
    unsigned n = taken < MAX_SAMPLES ? taken : MAX_SAMPLES;
    for (unsigned i = 0; i < n; i++) {
        uintptr_t *s = buf + (size_t)i * SLOT;
        fprintf(out, "sample %lx %lx", (unsigned long)s[1], (unsigned long)s[2]);
        for (uintptr_t d = 0; d < s[0]; d++)
            fprintf(out, " %lx", (unsigned long)s[3 + d]);
        fputc('\n', out);
    }
    fclose(out);
}
