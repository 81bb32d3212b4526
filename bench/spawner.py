"""Runs the cli workload's commands from a small process.

A child's peak resident memory, as the kernel reports it, includes the
memory of the process that spawned it at that moment.  Spawning from this
small process keeps the benchmark's own memory out of the children's
figure.  Protocol: one JSON object per line on stdin, {"argv", "stdin"};
one per line on stdout, {"code", "stdout", "stderr", "max_rss_kb"}, where
max_rss_kb is the peak over every child so far.  End of input ends it.
"""

import json
import resource
import subprocess
import sys

for line in sys.stdin:
    request = json.loads(line)
    proc = subprocess.Popen(
        request["argv"], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True,
    )
    try:
        out, err = proc.communicate(request["stdin"], timeout=120)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
    reply = {
        "code": proc.returncode,
        "stdout": out,
        "stderr": err,
        "max_rss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }
    sys.stdout.write(json.dumps(reply) + "\n")
    sys.stdout.flush()
