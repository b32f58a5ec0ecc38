"""Generated by `python -m repro check --update-fingerprint`.

Records the AST fingerprint of the sim-semantics sources as of
the last SIM_VERSION bump; lint rule RC105 compares against it.
"""

SIM_VERSION = 3

FINGERPRINT = {
    'sim/engine.py': 'fa50d9e49132c3a0f236eb850483e2879cd9cd0ea699cf122d7dcd357bf52433',
    'sim/primitives.py': '1daf3ebe0e66eb3921d979b7d50050fa25db943362c1182b7c72afc91594d317',
    'sim/syncobj.py': 'f3e692af0fd6c9ed677d06941d87024557a5269695a78101f928e1ccfab4507d',
    'sim/resources.py': '958a15303242ce15ca235ecfd0589496f7730ce7755841373da2d409b5241b0e',
    'node.py': '85b8851c896e6d28633222e31d7f2489606ee9bce018f6d690cc860d8c2cbc57',
    'memory/model.py': 'a6d2b7aa060150edc3bc6d294626df2046085cc2cde8a17ebfdb929d4f42ba60',
    'memory/cache.py': '246cfca835ffa90a239313709919dfc8b0f5c81817177b70aa2b5894bb1bd22d',
    'sync/flags.py': '013a59e28d806f373db3da1b4af3c949735e93c7aff6499e8ade5adc6992dad1',
}
