"""Former shared-memory transport of parallel campaigns (now empty).

Parallel workers used to attach their start-up state (reference trace,
golden probe snapshots, armed initial image) from one
``multiprocessing.shared_memory`` segment the coordinator published.
They now receive those objects as plain ``Process`` arguments
(:class:`repro.core.parallel.ProcessExecutor`): inherited without a copy
under ``fork``, one pickle per worker under ``spawn``.  Creating the
segment started multiprocessing's resource-tracker process, an extra
interpreter competing with the workers for the host's cores.

The module stays importable, without contents, for code that imports
it by name.
"""
