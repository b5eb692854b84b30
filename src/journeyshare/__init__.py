"""journeyshare: shared-journey planning on public transport timetables.

Pipeline: solo shortest-duration routes on a relaxed stop graph, round-robin
best-response replanning under a group-discount cost until no traveller can
improve alone, then per-group matching of the shared routes against the
24-hour timetable.
"""

__version__ = "0.1.0"
