"""Peak resident memory of the current process."""

from __future__ import annotations

import resource


def peak_rss_kb() -> int:
    """This process's peak resident set in KB.

    Read from Linux's ``VmHWM``, which counts this process's own pages
    only.  ``ru_maxrss`` is the fallback where ``/proc`` is missing: it
    is inherited across exec, so a child started by vfork+exec reports at
    least its parent's high-water mark until it outgrows it.
    """
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
