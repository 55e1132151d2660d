"""Shared physical constants and unit conventions.

Internal units throughout the package: wavelengths in nm, times in fs,
lengths of optical elements in mm, angles in rad.  Degrees are accepted
only in the front end: `config` converts the crystal cut and the beam
azimuths when it loads a file, and `cli` the angles of the per-command
sections when it runs a command.
"""

import math

# speed of light, nm/fs (exact)
C_NM_PER_FS = 299.792458

TWO_PI = 2.0 * math.pi
