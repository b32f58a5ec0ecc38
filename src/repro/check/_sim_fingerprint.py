"""Generated by `python -m repro check --update-fingerprint`.

Records the AST fingerprint of the sim-semantics sources as of
the last SIM_VERSION bump; lint rule RC105 compares against it.
"""

SIM_VERSION = 3

FINGERPRINT = {
    'sim/engine.py': 'a10aa7982cde5a8bc30b72a43b4a4a242981a4e76ad0b27a6c50dc25a4271b68',
    'sim/array_engine.py': '450539c34212f71d6bdd8659252c4e909b34e995f4b5b914e99bc027553e77bc',
    'sim/primitives.py': '4915de0a337d046607ad49195aa30ff464b8fc65aed6a72d091286d7fd5e238f',
    'sim/syncobj.py': 'f3e692af0fd6c9ed677d06941d87024557a5269695a78101f928e1ccfab4507d',
    'sim/resources.py': '0ace7ece458f10ee894b32d78af97e15eb7ac4ef594502dadf73d19935797363',
    'node.py': 'f6f54caa1746706f32097491aec0cd284cb803ab368b15224179b5454b0cc6b9',
    'memory/model.py': 'a6d2b7aa060150edc3bc6d294626df2046085cc2cde8a17ebfdb929d4f42ba60',
    'memory/cache.py': '246cfca835ffa90a239313709919dfc8b0f5c81817177b70aa2b5894bb1bd22d',
    'sync/flags.py': '013a59e28d806f373db3da1b4af3c949735e93c7aff6499e8ade5adc6992dad1',
}
