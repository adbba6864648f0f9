"""One module per workload: ``setup``, ``teardown``, ``measure`` (the
end-to-end run), ``layers`` (the traced run) and ``check``."""
