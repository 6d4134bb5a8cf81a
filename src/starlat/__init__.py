"""Geometry-of-numbers toolkit: successive minima of star bodies, primitive
lattice point statistics over Haar-random planar lattices, and the
shell/equipartition witness pipeline."""

__version__ = "0.1.0"

from .bodies import (BoundednessCertificate, DistanceFunction, body_distance,
                     boundedness_floor, box, evaluate, hyperbolic,
                     inflate_body, linear_image, parse_body, pnorm_ball,
                     scale_body, sphere_samples)
from .errors import (BudgetExceeded, DegenerateMass, DimensionMismatch,
                     DimensionTooSmall, InvariantViolation, NoConvergence,
                     NotLatticePoint, SingularBasis, StarlatError,
                     UnboundedBody, VolumeStall)
from .haar import (HaarSample2D, sample_unimodular_2d,
                   sample_unimodular_2d_arrays, sample_unimodular_2d_batch,
                   scale_lattice)
from .lattice import (Lattice, LatticePoint, enumerate_ball,
                      enumerate_ball_arrays, enumerate_hyperbolic_cross,
                      golden_lattice, is_primitive, lattice_point,
                      make_lattice, parse_basis, perturb_basis, primitive_mask,
                      random_unimodular)
from .minima import (DemoReport, MinimaResult, ProbeEntry, ProbeReport,
                     minima_upper_bound, noncontinuity_demo,
                     semicontinuity_probe, successive_minima_exact)
from .partition import (Partition2D, PipelineConfig, RateReport, Shell,
                        TransversalReport, WitnessReport, WitnessTuple,
                        build_partitions, build_shells, extract_witnesses,
                        part_miss_rate, plane_body, quadrant_of,
                        sample_shell_points, sublevel_body, transversal_check,
                        two_line_equipartition)
from .stats import (MomentReport, Region, RegionMoment, Theorem2Report,
                    annulus_region, box_region, count_primitive, disk_region,
                    parse_region, rogers_moment_report, sublevel_region,
                    theorem2_experiment)
