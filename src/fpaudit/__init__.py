"""fpaudit: challenge-response auditing of remotely running software versions.

The package determines which version of a software family answers at a
remote endpoint by exercising version-intrinsic functions with randomized,
time-bounded challenges, instead of trusting whatever label the provider
prints.
"""

from .versions import Version, VersionSet, branch_origin, parse_version, render_version

__all__ = [
    "Version",
    "VersionSet",
    "branch_origin",
    "parse_version",
    "render_version",
]

__version__ = "0.1.0"
