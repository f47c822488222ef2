"""``spine``: the ADLP benchmark.

Six named workloads drive the real pipeline -- publisher signs ->
subscriber ACKs -> ``LoggingThread`` batches -> ``RemoteLogger`` ->
``LogServerEndpoint`` -> ``LogServer`` chain + Merkle -> WAL/fsync ->
auditor -- over TCP loopback, check its outputs against oracles, and
report end-to-end metrics (untraced) and per-layer metrics (traced pass).
See ``README.md`` in this directory for the glossary and how to run it.
"""
