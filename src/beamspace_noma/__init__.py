"""Downlink mmWave beamspace MIMO-NOMA link-level simulator.

Pipeline: Saleh-Valenzuela channels -> lens DFT beamspace -> per-user beam
selection and NOMA grouping -> equivalent-channel ZF precoding -> iterative
joint power allocation -> spectrum/energy-efficiency metrics, plus the fully
digital, single-user beamspace MIMO, and OMA comparison schemes and a seeded
Monte Carlo harness.
"""

from .beams import (BeamAssignment, BeamGrouping, DegenerateChannelError,
                    OrderReport, group_users, reorder, select_beams, verify_order)
from .baselines import (beamspace_mimo_single_user, beamspace_mimo_single_user_batch,
                        fully_digital_zf, fully_digital_zf_batch, mimo_oma, mimo_oma_batch)
from .channel import (ChannelParams, ChannelRealization, LensMatrix, lens_transform_matrix,
                      sample_realization, steering_vector, to_beamspace, trial_rng)
from .config import SystemConfig, build_config, load_config_file
from .power import (DualSolution, OptimizerConfig, PowerAllocation,
                    allocate, allocate_batch, mmse_error, proposition1_check, update_p)
from .precoding import (Precoder, PrecodingError, equivalent_channel_strongest,
                        equivalent_channel_svd, make_equivalent, top_left_singular_vector,
                        zf_precoder)
from .rates import (LinkBudget, LinkGains, PowerModel, RateReport, energy_efficiency,
                    interference_vector, link_gains, sinr, sum_rate)
from .runner import ExperimentRecord, SweepResult, build_noma_link, run_trial, summarize, sweep

__version__ = "0.1.0"
